package nn

import (
	"fmt"
	"math"

	"buckwild/internal/dataset"
	"buckwild/internal/prng"
)

// Network is a small feed-forward CNN with a softmax cross-entropy head.
type Network struct {
	layers  []layer
	classes int
	quant   QuantSpec
}

// LeNetConfig configures the LeNet-style network used for the Figure 7b
// reproduction: conv-pool-conv-pool-FC, sized for the synthetic digit
// task.
type LeNetConfig struct {
	W, H    int
	Classes int
	Quant   QuantSpec
	Seed    uint64
}

// The two convolution layers' output channel counts.
const (
	conv1Channels = 6
	conv2Channels = 12
)

// NewLeNet builds the network.
func NewLeNet(cfg LeNetConfig) (*Network, error) {
	if cfg.W < 8 || cfg.H < 8 {
		return nil, fmt.Errorf("nn: input %dx%d too small for LeNet", cfg.W, cfg.H)
	}
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("nn: need at least 2 classes")
	}
	g := prng.NewXorshift128(cfg.Seed ^ 0x1E7E7)
	c1, err := newConv(cfg.W, cfg.H, 1, conv1Channels, 3, g)
	if err != nil {
		return nil, err
	}
	p1 := newPool(c1.outW(), c1.outH(), conv1Channels)
	c2, err := newConv(p1.outW(), p1.outH(), conv1Channels, conv2Channels, 3, g)
	if err != nil {
		return nil, err
	}
	p2 := newPool(c2.outW(), c2.outH(), conv2Channels)
	fc := newFC(p2.outSize(), cfg.Classes, g)
	net := &Network{
		layers:  []layer{c1, p1, c2, p2, fc},
		classes: cfg.Classes,
		quant:   cfg.Quant,
	}
	// Weights start on the quantized grid.
	for _, l := range net.layers {
		l.update(0, &net.quant)
	}
	return net, nil
}

// forward runs the network on one image, applying activation quantization
// between layers (the dataset precision of the DMGC model).
func (n *Network) forward(img []float32) []float32 {
	x := append([]float32(nil), img...)
	n.quant.QuantActs(x)
	for _, l := range n.layers {
		x = l.forward(x)
		n.quant.QuantActs(x)
	}
	return x
}

// Predict returns the most likely class for an image.
func (n *Network) Predict(img []float32) int {
	logits := n.forward(img)
	best := 0
	for c := 1; c < len(logits); c++ {
		if logits[c] > logits[best] {
			best = c
		}
	}
	return best
}

// trainOne runs one SGD step on (img, label) and returns the sample's
// cross-entropy loss.
func (n *Network) trainOne(img []float32, label int, lr float32) float64 {
	logits := n.forward(img)
	probs, loss := softmaxLoss(logits, label)
	grad := probs
	grad[label] -= 1
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad = n.layers[i].backward(grad)
	}
	for _, l := range n.layers {
		l.update(lr, &n.quant)
	}
	return loss
}

// TrainResult summarizes a training run.
type TrainResult struct {
	// EpochLoss is the mean training loss of each epoch.
	EpochLoss []float64
	// TestError is the classification error on the held-out set after
	// the final epoch.
	TestError float64
}

// Train runs epochs of single-example SGD on train and evaluates on test.
func (n *Network) Train(train, test *dataset.Digits, epochs int, lr float32) (*TrainResult, error) {
	if epochs < 1 {
		return nil, fmt.Errorf("nn: epochs must be >= 1")
	}
	if len(train.Images) == 0 || len(test.Images) == 0 {
		return nil, fmt.Errorf("nn: empty dataset")
	}
	res := &TrainResult{}
	for e := 0; e < epochs; e++ {
		var total float64
		for i, img := range train.Images {
			total += n.trainOne(img, train.Labels[i], lr)
		}
		res.EpochLoss = append(res.EpochLoss, total/float64(len(train.Images)))
	}
	res.TestError = n.TestError(test)
	return res, nil
}

// TestError returns the classification error on a dataset.
func (n *Network) TestError(d *dataset.Digits) float64 {
	wrong := 0
	for i, img := range d.Images {
		if n.Predict(img) != d.Labels[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(d.Images))
}

// softmaxLoss returns the softmax probabilities and cross-entropy loss.
func softmaxLoss(logits []float32, label int) ([]float32, float64) {
	maxL := logits[0]
	for _, v := range logits[1:] {
		if v > maxL {
			maxL = v
		}
	}
	probs := make([]float32, len(logits))
	var sum float64
	for i, v := range logits {
		e := math.Exp(float64(v - maxL))
		probs[i] = float32(e)
		sum += e
	}
	for i := range probs {
		probs[i] = float32(float64(probs[i]) / sum)
	}
	p := float64(probs[label])
	if p < 1e-12 {
		p = 1e-12
	}
	return probs, -math.Log(p)
}
