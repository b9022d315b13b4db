package dataset

import (
	"fmt"
	"math"

	"buckwild/internal/prng"
)

// Digits is a synthetic 10-class image classification task standing in for
// MNIST in the CNN (Figure 7b) and kernel SVM (Figures 7d/7e) experiments.
// Each class has a smooth random prototype image; samples are the prototype
// plus pixel noise and a small random shift, which gives a task that is
// learnable but not trivial — like MNIST, classes are separable with a small
// network yet single pixels are uninformative.
type Digits struct {
	// W and H are the image dimensions; C the number of classes.
	W, H, C int
	// Images holds len(Labels) images, each W*H floats in [0, 1].
	Images [][]float32
	// Labels holds class ids in [0, C).
	Labels []int
}

// DigitsConfig configures synthetic digit generation.
type DigitsConfig struct {
	W, H    int
	Classes int
	Train   int // number of samples to generate
	// Noise is the pixel noise amplitude (default 0.25).
	Noise float64
	Seed  uint64
}

// GenDigits generates a synthetic digit dataset.
func GenDigits(cfg DigitsConfig) (*Digits, error) {
	if cfg.W <= 0 || cfg.H <= 0 || cfg.Classes <= 0 || cfg.Train <= 0 {
		return nil, fmt.Errorf("dataset: GenDigits: all dimensions must be positive")
	}
	noise := cfg.Noise
	if noise == 0 {
		noise = 0.25
	}
	g := prng.NewXorshift128(cfg.Seed ^ 0xD161757)
	protos := make([][]float32, cfg.Classes)
	for c := range protos {
		protos[c] = smoothProto(cfg.W, cfg.H, g)
	}
	d := &Digits{
		W: cfg.W, H: cfg.H, C: cfg.Classes,
		Images: make([][]float32, cfg.Train),
		Labels: make([]int, cfg.Train),
	}
	for i := 0; i < cfg.Train; i++ {
		c := int(g.Uint32() % uint32(cfg.Classes))
		dx := int(g.Uint32()%3) - 1
		dy := int(g.Uint32()%3) - 1
		img := make([]float32, cfg.W*cfg.H)
		for y := 0; y < cfg.H; y++ {
			for x := 0; x < cfg.W; x++ {
				sx, sy := x+dx, y+dy
				var v float32
				if sx >= 0 && sx < cfg.W && sy >= 0 && sy < cfg.H {
					v = protos[c][sy*cfg.W+sx]
				}
				v += float32(noise) * (prng.Float32(g) - 0.5)
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
				img[y*cfg.W+x] = v
			}
		}
		d.Images[i] = img
		d.Labels[i] = c
	}
	return d, nil
}

// smoothProto builds a smooth random prototype: a sum of a few random
// Gaussian bumps, normalized to [0, 1].
func smoothProto(w, h int, g prng.Source) []float32 {
	const bumps = 5
	type bump struct{ cx, cy, sigma, amp float64 }
	bs := make([]bump, bumps)
	for i := range bs {
		bs[i] = bump{
			cx:    float64(g.Uint32()%uint32(w)) + 0.5,
			cy:    float64(g.Uint32()%uint32(h)) + 0.5,
			sigma: 1.5 + 3*float64(prng.Float32(g)),
			amp:   0.5 + float64(prng.Float32(g)),
		}
	}
	img := make([]float32, w*h)
	maxV := float32(0)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var v float64
			for _, b := range bs {
				dx := float64(x) - b.cx
				dy := float64(y) - b.cy
				v += b.amp * math.Exp(-(dx*dx+dy*dy)/(2*b.sigma*b.sigma))
			}
			img[y*w+x] = float32(v)
			if img[y*w+x] > maxV {
				maxV = img[y*w+x]
			}
		}
	}
	if maxV > 0 {
		for i := range img {
			img[i] /= maxV
		}
	}
	return img
}

// Split partitions the dataset into train and test halves at the given
// train fraction (e.g. 0.8).
func (d *Digits) Split(frac float64) (train, test *Digits) {
	cut := int(frac * float64(len(d.Images)))
	if cut < 1 {
		cut = 1
	}
	if cut >= len(d.Images) {
		cut = len(d.Images) - 1
	}
	train = &Digits{W: d.W, H: d.H, C: d.C, Images: d.Images[:cut], Labels: d.Labels[:cut]}
	test = &Digits{W: d.W, H: d.H, C: d.C, Images: d.Images[cut:], Labels: d.Labels[cut:]}
	return train, test
}
