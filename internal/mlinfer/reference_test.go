package mlinfer

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"confbench/internal/meter"
)

// The reference layers below are the scalar loops the kernels in
// layers.go replaced, kept verbatim: each output element starts from
// zero, sums its taps over ky, then kx, then ci, and adds its bias last.
// TestLayersMatchReference holds the kernels to their output bits and
// their metered Usage.

func refConv2D(c *Conv2D, m *meter.Context, in Tensor) (Tensor, error) {
	if in.C != c.inCh {
		return Tensor{}, fmt.Errorf("mlinfer: %s: input channels %d, want %d", c.name, in.C, c.inCh)
	}
	oh, ow, oc := c.OutShape(in.H, in.W, in.C)
	out := NewTensor(oh, ow, oc)
	pad := c.kernel / 2
	k, ic := c.kernel, c.inCh
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ky := 0; ky < k; ky++ {
				iy := oy*c.stride + ky - pad
				if iy < 0 || iy >= in.H {
					continue
				}
				for kx := 0; kx < k; kx++ {
					ix := ox*c.stride + kx - pad
					if ix < 0 || ix >= in.W {
						continue
					}
					inBase := (iy*in.W + ix) * ic
					wBase := ((ky*k + kx) * ic) * oc
					outBase := (oy*ow + ox) * oc
					for ci := 0; ci < ic; ci++ {
						v := in.Data[inBase+ci]
						wRow := wBase + ci*oc
						for co := 0; co < oc; co++ {
							out.Data[outBase+co] += v * c.weights[wRow+co]
						}
					}
				}
			}
			outBase := (oy*ow + ox) * oc
			for co := 0; co < oc; co++ {
				out.Data[outBase+co] += c.bias[co]
			}
		}
	}
	macs := c.MACs(in.H, in.W, in.C)
	m.FP(macs * 2)
	m.Touch(macs * 4)
	m.Alloc(out.Bytes())
	return out, nil
}

func refDepthwiseConv2D(d *DepthwiseConv2D, m *meter.Context, in Tensor) (Tensor, error) {
	if in.C != d.ch {
		return Tensor{}, fmt.Errorf("mlinfer: %s: input channels %d, want %d", d.name, in.C, d.ch)
	}
	oh, ow, oc := d.OutShape(in.H, in.W, in.C)
	out := NewTensor(oh, ow, oc)
	pad := d.kernel / 2
	k := d.kernel
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			outBase := (oy*ow + ox) * oc
			for ky := 0; ky < k; ky++ {
				iy := oy*d.stride + ky - pad
				if iy < 0 || iy >= in.H {
					continue
				}
				for kx := 0; kx < k; kx++ {
					ix := ox*d.stride + kx - pad
					if ix < 0 || ix >= in.W {
						continue
					}
					inBase := (iy*in.W + ix) * oc
					wBase := (ky*k + kx) * oc
					for ch := 0; ch < oc; ch++ {
						out.Data[outBase+ch] += in.Data[inBase+ch] * d.weights[wBase+ch]
					}
				}
			}
			for ch := 0; ch < oc; ch++ {
				out.Data[outBase+ch] += d.bias[ch]
			}
		}
	}
	macs := d.MACs(in.H, in.W, in.C)
	m.FP(macs * 2)
	m.Touch(macs * 4)
	m.Alloc(out.Bytes())
	return out, nil
}

func refReLU6(r *ReLU6, m *meter.Context, in Tensor) (Tensor, error) {
	for i, v := range in.Data {
		if v < 0 {
			in.Data[i] = 0
		} else if v > 6 {
			in.Data[i] = 6
		}
	}
	m.FP(int64(in.Len()))
	m.Touch(int64(in.Len()) * 4)
	return in, nil
}

func refDense(d *Dense, m *meter.Context, in Tensor) (Tensor, error) {
	if in.Len() != d.in {
		return Tensor{}, fmt.Errorf("mlinfer: %s: input size %d, want %d", d.name, in.Len(), d.in)
	}
	out := NewTensor(1, 1, d.out)
	for i := 0; i < d.in; i++ {
		v := in.Data[i]
		row := i * d.out
		for j := 0; j < d.out; j++ {
			out.Data[j] += v * d.weights[row+j]
		}
	}
	for j := 0; j < d.out; j++ {
		out.Data[j] += d.bias[j]
	}
	macs := d.MACs(0, 0, 0)
	m.FP(macs * 2)
	m.Touch(macs * 4)
	m.Alloc(out.Bytes())
	return out, nil
}

// refInput fills a tensor from r with the values that catch a changed
// summation order or a changed zero: ordinary activations, signed
// zeros, and magnitudes large enough that partial sums round off the
// small terms or overflow.
func refInput(r *rand.Rand, h, w, c int) Tensor {
	t := NewTensor(h, w, c)
	for i := range t.Data {
		switch n := r.Intn(20); {
		case n == 0:
			t.Data[i] = float32(math.Copysign(0, -1))
		case n == 1:
			t.Data[i] = 0
		case n == 2:
			t.Data[i] = float32(r.NormFloat64() * 1e7)
		case n == 3:
			t.Data[i] = float32(r.NormFloat64() * 1e37)
		default:
			t.Data[i] = float32(r.NormFloat64() * 4)
		}
	}
	return t
}

// sameForward runs a layer and its reference on copies of in and
// compares the output bits and the metered Usage.
func sameForward(t *testing.T, what string, in Tensor, got, want func(*meter.Context, Tensor) (Tensor, error)) {
	t.Helper()
	clone := func() Tensor {
		c := in
		c.Data = append([]float32(nil), in.Data...)
		return c
	}
	gm, wm := meter.NewContext(), meter.NewContext()
	g, gerr := got(gm, clone())
	w, werr := want(wm, clone())
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: error %v, reference %v", what, gerr, werr)
	}
	if g.H != w.H || g.W != w.W || g.C != w.C || len(g.Data) != len(w.Data) {
		t.Fatalf("%s: shape %s, reference %s", what, g.ShapeString(), w.ShapeString())
	}
	for i := range w.Data {
		if math.Float32bits(g.Data[i]) != math.Float32bits(w.Data[i]) {
			t.Fatalf("%s: element %d is %v (%#08x), reference %v (%#08x)", what, i,
				g.Data[i], math.Float32bits(g.Data[i]), w.Data[i], math.Float32bits(w.Data[i]))
		}
	}
	if gu, wu := gm.Snapshot(), wm.Snapshot(); !reflect.DeepEqual(gu, wu) {
		t.Fatalf("%s: usage %v, reference %v", what, gu, wu)
	}
}

// TestLayersMatchReference compares every rewritten layer with its
// reference over seeded random shapes: kernels 1, 3 and 5 at strides 1
// and 2, images from 1×1 to 13×13, and 1 to 37 channels, so every
// block tail of the kernels runs (odd pixel counts, channel counts off
// the block).
func TestLayersMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	dim := func() int { return 1 + r.Intn(13) }
	ch := func() int { return 1 + r.Intn(37) }
	for _, k := range []int{1, 3, 5} {
		for _, s := range []int{1, 2} {
			for n := 0; n < 40; n++ {
				h, w, ic, oc := dim(), dim(), ch(), ch()
				in := refInput(r, h, w, ic)
				c := NewConv2D("c", k, s, ic, oc, newRNG(r.Uint64()))
				what := fmt.Sprintf("conv k=%d s=%d %s->%d", k, s, in.ShapeString(), oc)
				sameForward(t, what, in, c.Forward, func(m *meter.Context, in Tensor) (Tensor, error) {
					return refConv2D(c, m, in)
				})
				d := NewDepthwiseConv2D("d", k, s, ic, newRNG(r.Uint64()))
				what = fmt.Sprintf("depthwise k=%d s=%d %s", k, s, in.ShapeString())
				sameForward(t, what, in, d.Forward, func(m *meter.Context, in Tensor) (Tensor, error) {
					return refDepthwiseConv2D(d, m, in)
				})
			}
		}
	}
	for n := 0; n < 60; n++ {
		ni, no := ch(), ch()
		if n%10 == 0 {
			no = 1000 // the classifier's width
		}
		in := refInput(r, 1, 1, ni)
		d := NewDense("fc", ni, no, newRNG(r.Uint64()))
		sameForward(t, fmt.Sprintf("dense %d->%d", ni, no), in, d.Forward, func(m *meter.Context, in Tensor) (Tensor, error) {
			return refDense(d, m, in)
		})
	}
	// ReLU6 at its edges: both zeros, six and its neighbours, both
	// infinities and NaNs of either sign pass through as the branches
	// leave them.
	edges := NewTensor(1, 1, 0)
	for _, b := range []uint32{0, 0x80000000, 0x40C00000, 0x40BFFFFF, 0x40C00001, 1, 0x80000001,
		0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00000, 0x7F800001, 0xFF800001, 0x7F7FFFFF, 0xFF7FFFFF} {
		edges.Data = append(edges.Data, math.Float32frombits(b))
	}
	edges.C = len(edges.Data)
	relu := NewReLU6("r")
	sameForward(t, "relu6 edges", edges, relu.Forward, func(m *meter.Context, in Tensor) (Tensor, error) {
		return refReLU6(relu, m, in)
	})
	sameForward(t, "relu6", refInput(r, 13, 13, 37), relu.Forward, func(m *meter.Context, in Tensor) (Tensor, error) {
		return refReLU6(relu, m, in)
	})
}
