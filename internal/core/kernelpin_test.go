package core

import (
	"runtime"
	"testing"

	"buckwild/internal/kernels"
	"buckwild/internal/obs"
)

// roundingPins were captured on the commit before the integer AXPY's
// rounding and model write were fused into one pass per 8-lane block, so
// they are the three-pass pipeline's answers, bit for bit. They cover what
// TestEnginePinned leaves out: the mixed lane widths, every rounding kind
// on the dense D8M8 and sparse D8i16M8 paths, and a QShared period that
// never covers a whole block. Keys are "<signature>/<rounding>[/p<period>]".
var roundingPins = map[string]enginePin{
	"D8M16/unbiased-shared":      {0x585d4a2d75a47fd8, 0xf81d97709b633053, 0x8a10e892e22ed231},
	"D16M8/unbiased-shared":      {0x3cd3e3ad02a21dc6, 0xcffd49177dd52c8f, 0xde9721bc3c0c9c70},
	"D8M8/unbiased-shared/p3":    {0x6762ad55e2b691e, 0xf2bb87d65fc70ca2, 0x29cf42dc1598d7ab},
	"D8M8/biased":                {0x63ea356bbb4a3619, 0xaf61c9714157cb3c, 0x88450a51288c1717},
	"D8M8/unbiased-xorshift":     {0x1f9065e657c417bd, 0xa5096796b1f886ec, 0xe18dbd2d1b4e194e},
	"D8M8/unbiased-mt19937":      {0x9cb8b50dc2374746, 0x724580b1e4b6faab, 0x6ec9bb640b9cc90c},
	"D8i16M8/biased":             {0xf9d2f303d5a34f20, 0x1f4534aee85c9d93, 0x29897588265cb92f},
	"D8i16M8/unbiased-mt19937":   {0x7893b08f4e59b26b, 0x58ef034766188b11, 0xa45cce8fa49d81c2},
	"D8i16M8/unbiased-xorshift":  {0x9cab0de8f07d964e, 0x9251bb273a3eeb9b, 0x875d9957018a1a1e},
	"D8i16M8/unbiased-shared/p5": {0x4b4639f74ac7e30d, 0xcbfb73a50523e788, 0x65a3696458fa8f0a},
	"D8i16M8/unbiased-hardware":  {0x9cab0de8f07d964e, 0x9251bb273a3eeb9b, 0x5fe4ad4925b6ab83},
}

// TestRoundingPinned pins seeded single-thread runs of the integer AXPY
// paths TestEnginePinned does not reach, with NumHealth off and on; as
// there, counting must not change the run.
func TestRoundingPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pins captured on amd64; other architectures may fuse float multiply-adds in the loss and gradient-scale path")
	}
	type row struct {
		name string
		cfg  Config
		ds   Dataset
	}
	var rows []row
	dense := func(name string, d, m kernels.Prec, q kernels.QuantKind, period int) {
		cfg := baseCfg(d, m)
		cfg.Quant, cfg.QuantPeriod, cfg.Epochs = q, period, 3
		rows = append(rows, row{name, cfg, denseData(t, 45, 300, d, 3)})
	}
	dense("D8M16/unbiased-shared", kernels.I8, kernels.I16, kernels.QShared, 8)
	dense("D16M8/unbiased-shared", kernels.I16, kernels.I8, kernels.QShared, 8)
	dense("D8M8/unbiased-shared/p3", kernels.I8, kernels.I8, kernels.QShared, 3)
	for _, q := range []kernels.QuantKind{kernels.QBiased, kernels.QXorshift, kernels.QMersenne} {
		dense("D8M8/"+q.String(), kernels.I8, kernels.I8, q, 8)
	}
	sparse := sparseData(t, 400, 500, kernels.I8, 16, 5)
	for _, q := range []kernels.QuantKind{kernels.QBiased, kernels.QMersenne, kernels.QXorshift, kernels.QShared, kernels.QHardware} {
		cfg := baseCfg(kernels.I8, kernels.I8)
		cfg.Quant, cfg.StepSize, cfg.Epochs = q, 0.3, 3
		name := "D8i16M8/" + q.String()
		if q == kernels.QShared {
			// TestEnginePinned has period 8; 5 straddles the blocks.
			cfg.QuantPeriod = 5
			name += "/p5"
		}
		rows = append(rows, row{name, cfg, sparse})
	}
	if len(rows) != len(roundingPins) {
		t.Errorf("%d rows but %d pins", len(rows), len(roundingPins))
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			res, err := Train(r.cfg, r.ds)
			if err != nil {
				t.Fatal(err)
			}
			r.cfg.Observer = &obs.Observer{NumHealth: true}
			health, err := Train(r.cfg, r.ds)
			if err != nil {
				t.Fatal(err)
			}
			got := pinOf(t, res, health)
			if counted := pinOf(t, health, health); counted != got {
				t.Errorf("NumHealth changed the run: %#x vs %#x", counted, got)
			}
			if want := roundingPins[r.name]; got != want {
				t.Errorf("got {%#x, %#x, %#x}, want {%#x, %#x, %#x}",
					got.w, got.loss, got.num, want.w, want.loss, want.num)
			}
		})
	}
}
