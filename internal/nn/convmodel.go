package nn

import (
	"fmt"

	"buckwild/internal/kernels"
	"buckwild/internal/simd"
)

// ConvDims describes a convolution layer for the Figure 7a throughput
// proxy. The paper measures the first convolution layer of Caffe's AlexNet
// example on 227x227x3 ImageNet-sized images, since convolution dominates
// CNN training time.
type ConvDims struct {
	InW, InH, InC int
	OutC, K       int
	Stride        int
}

// AlexNetConv1 returns the layer the paper profiles.
func AlexNetConv1() ConvDims {
	return ConvDims{InW: 227, InH: 227, InC: 3, OutC: 96, K: 11, Stride: 4}
}

// OutW returns the output width.
func (d ConvDims) OutW() int { return (d.InW-d.K)/d.Stride + 1 }

// OutH returns the output height.
func (d ConvDims) OutH() int { return (d.InH-d.K)/d.Stride + 1 }

// MACs returns the multiply-accumulates per image.
func (d ConvDims) MACs() int64 {
	return int64(d.OutW()) * int64(d.OutH()) * int64(d.OutC) * int64(d.InC*d.K*d.K)
}

// ConvCycles estimates the compute cycles of one forward pass of the layer
// at the given dataset/weight precisions, by costing the im2col matmul as
// a sequence of dot products through the kernel instruction streams. The
// weights here are "model numbers" in DMGC terms.
func ConvCycles(cost *simd.CostModel, dims ConvDims, dPrec, mPrec kernels.Prec, v kernels.Variant) (float64, error) {
	if dims.Stride < 1 || dims.K < 1 {
		return 0, fmt.Errorf("nn: bad conv dims %+v", dims)
	}
	var q *kernels.Quantizer
	if mPrec != kernels.F32 {
		var err error
		q, err = kernels.NewQuantizer(mPrec, kernels.QShared, 8, 1)
		if err != nil {
			return 0, err
		}
	}
	k, err := kernels.NewDense(dPrec, mPrec, v, q)
	if err != nil {
		return 0, err
	}
	dotLen := dims.InC * dims.K * dims.K
	s := k.DotStream(dotLen)
	positions := int64(dims.OutW()) * int64(dims.OutH()) * int64(dims.OutC)
	s.Scale(positions)
	// im2col gather overhead: one scalar move per patch element.
	var gather simd.Stream
	gather.Emit(simd.ScalarALU, int64(dims.OutW())*int64(dims.OutH())*int64(dotLen))
	s.Add(gather)
	return s.Cycles(cost), nil
}
