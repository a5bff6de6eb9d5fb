package mlinfer

import (
	"fmt"
	"math"

	"confbench/internal/meter"
)

// Layer transforms a tensor, metering its arithmetic.
type Layer interface {
	// Name identifies the layer in model listings.
	Name() string
	// Forward applies the layer.
	Forward(m *meter.Context, in Tensor) (Tensor, error)
	// MACs estimates multiply-accumulates for an input shape.
	MACs(h, w, c int) int64
	// OutShape predicts the output shape.
	OutShape(h, w, c int) (int, int, int)
}

// Conv2D is a standard convolution with same-padding.
type Conv2D struct {
	name    string
	kernel  int
	stride  int
	inCh    int
	outCh   int
	weights []float32 // [k][k][inCh][outCh]
	bias    []float32
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D builds a k×k convolution with stride s and random
// deterministic weights drawn from r.
func NewConv2D(name string, kernel, stride, inCh, outCh int, r *rng) *Conv2D {
	c := &Conv2D{
		name:    name,
		kernel:  kernel,
		stride:  stride,
		inCh:    inCh,
		outCh:   outCh,
		weights: make([]float32, kernel*kernel*inCh*outCh),
		bias:    make([]float32, outCh),
	}
	fillWeights(c.weights, kernel*kernel*inCh, r)
	fillWeights(c.bias, 4, r)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// OutShape implements Layer.
func (c *Conv2D) OutShape(h, w, _ int) (int, int, int) {
	return (h + c.stride - 1) / c.stride, (w + c.stride - 1) / c.stride, c.outCh
}

// MACs implements Layer.
func (c *Conv2D) MACs(h, w, _ int) int64 {
	oh, ow, _ := c.OutShape(h, w, 0)
	return int64(oh) * int64(ow) * int64(c.kernel*c.kernel) * int64(c.inCh) * int64(c.outCh)
}

// Forward implements Layer.
func (c *Conv2D) Forward(m *meter.Context, in Tensor) (Tensor, error) {
	if in.C != c.inCh {
		return Tensor{}, fmt.Errorf("mlinfer: %s: input channels %d, want %d", c.name, in.C, c.inCh)
	}
	oh, ow, oc := c.OutShape(in.H, in.W, in.C)
	out := NewTensor(oh, ow, oc)
	if c.kernel == 1 && c.stride == 1 {
		c.pointwise(out, in)
	} else {
		c.general(out, in)
	}
	macs := c.MACs(in.H, in.W, in.C)
	m.FP(macs * 2)
	m.Touch(macs * 4)
	m.Alloc(out.Bytes())
	return out, nil
}

// The convolution kernels compute each output element as the scalar
// six-deep loop they replaced did, so its float32 bits do not change:
// the sum starts from zero, takes its terms over ky, then kx, then ci,
// each as `acc += v * w`, skips the taps that fall in the padding, and
// adds the bias last. Only the order in which elements are computed,
// and where their running sums live, differ. DESIGN.md §16 has the
// costs.

// pointwise is the 1×1 stride-1 convolution: in as an [H·W][ic] matrix
// times the [ic][oc] weights. It is blocked two pixels × four output
// channels with the eight running sums in locals, so each weight load
// serves two pixels and each input load four channels.
func (c *Conv2D) pointwise(out, in Tensor) {
	ic, oc, w := c.inCh, c.outCh, c.weights
	px := in.H * in.W
	p := 0
	for ; p+2 <= px; p += 2 {
		in0 := in.Data[p*ic : (p+1)*ic : (p+1)*ic]
		in1 := in.Data[(p+1)*ic : (p+2)*ic : (p+2)*ic][:len(in0)]
		out0 := out.Data[p*oc : (p+1)*oc : (p+1)*oc]
		out1 := out.Data[(p+1)*oc : (p+2)*oc : (p+2)*oc]
		co := 0
		for ; co+4 <= oc; co += 4 {
			var a0, a1, a2, a3, b0, b1, b2, b3 float32
			wb := co
			for ci, u := range in0 {
				v := in1[ci]
				wr := w[wb : wb+4 : wb+4]
				a0 += u * wr[0]
				a1 += u * wr[1]
				a2 += u * wr[2]
				a3 += u * wr[3]
				b0 += v * wr[0]
				b1 += v * wr[1]
				b2 += v * wr[2]
				b3 += v * wr[3]
				wb += oc
			}
			setBiased(out0[co:], c.bias[co:], a0, a1, a2, a3)
			setBiased(out1[co:], c.bias[co:], b0, b1, b2, b3)
		}
		for ; co < oc; co++ {
			out0[co] = dot1(0, in0, w, co, oc) + c.bias[co]
			out1[co] = dot1(0, in1, w, co, oc) + c.bias[co]
		}
	}
	if p < px { // the last pixel of an odd count
		in0, out0 := in.Data[p*ic:][:ic], out.Data[p*oc:][:oc]
		co := 0
		for ; co+4 <= oc; co += 4 {
			a0, a1, a2, a3 := dot4(0, 0, 0, 0, in0, w, co, oc)
			setBiased(out0[co:], c.bias[co:], a0, a1, a2, a3)
		}
		for ; co < oc; co++ {
			out0[co] = dot1(0, in0, w, co, oc) + c.bias[co]
		}
	}
}

// general is the k×k or strided convolution. Each output pixel clips
// the kernel to the rows and columns of taps inside the image, so no
// tap is tested against the padding. The taps of one kernel row are
// adjacent in the input and in the weights alike, so each kernel row is
// one dot4 over (kx, ci) in order, four output channels at a time.
func (c *Conv2D) general(out, in Tensor) {
	pad := c.kernel / 2
	k, s, ic, oc, w := c.kernel, c.stride, c.inCh, c.outCh, c.weights
	for oy := 0; oy < out.H; oy++ {
		y0 := oy*s - pad
		kyLo, kyHi := max(0, -y0), min(k, in.H-y0)
		for ox := 0; ox < out.W; ox++ {
			x0 := ox*s - pad
			kxLo, kxHi := max(0, -x0), min(k, in.W-x0)
			span := (kxHi - kxLo) * ic
			outRow := out.Data[(oy*out.W+ox)*oc:][:oc]
			co := 0
			for ; co+4 <= oc; co += 4 {
				var a0, a1, a2, a3 float32
				for ky := kyLo; ky < kyHi; ky++ {
					ib := ((y0+ky)*in.W + x0 + kxLo) * ic
					a0, a1, a2, a3 = dot4(a0, a1, a2, a3, in.Data[ib:ib+span:ib+span], w, (ky*k+kxLo)*ic*oc+co, oc)
				}
				setBiased(outRow[co:], c.bias[co:], a0, a1, a2, a3)
			}
			for ; co < oc; co++ {
				var a float32
				for ky := kyLo; ky < kyHi; ky++ {
					ib := ((y0+ky)*in.W + x0 + kxLo) * ic
					a = dot1(a, in.Data[ib:ib+span:ib+span], w, (ky*k+kxLo)*ic*oc+co, oc)
				}
				outRow[co] = a + c.bias[co]
			}
		}
	}
}

// dot4 continues four running sums of x times a [len(x)][oc] weight
// matrix whose row i starts at w[wb+i*oc]: in order of i,
// a_j += x[i] * w[wb+i*oc+j].
func dot4(a0, a1, a2, a3 float32, x, w []float32, wb, oc int) (float32, float32, float32, float32) {
	for _, v := range x {
		wr := w[wb : wb+4 : wb+4]
		a0 += v * wr[0]
		a1 += v * wr[1]
		a2 += v * wr[2]
		a3 += v * wr[3]
		wb += oc
	}
	return a0, a1, a2, a3
}

// dot1 is dot4 for one output channel.
func dot1(a float32, x, w []float32, wb, oc int) float32 {
	for _, v := range x {
		a += v * w[wb]
		wb += oc
	}
	return a
}

// setBiased stores four finished sums plus their biases, the last term
// of each, in o[0:4].
func setBiased(o, bias []float32, a0, a1, a2, a3 float32) {
	o, bias = o[:4:4], bias[:4:4]
	o[0], o[1], o[2], o[3] = a0+bias[0], a1+bias[1], a2+bias[2], a3+bias[3]
}

// DepthwiseConv2D applies one k×k filter per channel (MobileNet's
// separable building block).
type DepthwiseConv2D struct {
	name    string
	kernel  int
	stride  int
	ch      int
	weights []float32 // [k][k][ch]
	bias    []float32
}

var _ Layer = (*DepthwiseConv2D)(nil)

// NewDepthwiseConv2D builds a depthwise convolution.
func NewDepthwiseConv2D(name string, kernel, stride, ch int, r *rng) *DepthwiseConv2D {
	d := &DepthwiseConv2D{
		name:    name,
		kernel:  kernel,
		stride:  stride,
		ch:      ch,
		weights: make([]float32, kernel*kernel*ch),
		bias:    make([]float32, ch),
	}
	fillWeights(d.weights, kernel*kernel, r)
	fillWeights(d.bias, 4, r)
	return d
}

// Name implements Layer.
func (d *DepthwiseConv2D) Name() string { return d.name }

// OutShape implements Layer.
func (d *DepthwiseConv2D) OutShape(h, w, _ int) (int, int, int) {
	return (h + d.stride - 1) / d.stride, (w + d.stride - 1) / d.stride, d.ch
}

// MACs implements Layer.
func (d *DepthwiseConv2D) MACs(h, w, _ int) int64 {
	oh, ow, _ := d.OutShape(h, w, 0)
	return int64(oh) * int64(ow) * int64(d.kernel*d.kernel) * int64(d.ch)
}

// Forward implements Layer.
func (d *DepthwiseConv2D) Forward(m *meter.Context, in Tensor) (Tensor, error) {
	if in.C != d.ch {
		return Tensor{}, fmt.Errorf("mlinfer: %s: input channels %d, want %d", d.name, in.C, d.ch)
	}
	oh, ow, oc := d.OutShape(in.H, in.W, in.C)
	out := NewTensor(oh, ow, oc)
	// As in Conv2D.general: the kernel is clipped to the taps inside the
	// image, and four channels' running sums are held in locals.
	pad := d.kernel / 2
	k, st, w := d.kernel, d.stride, d.weights
	for oy := 0; oy < oh; oy++ {
		y0 := oy*st - pad
		kyLo, kyHi := max(0, -y0), min(k, in.H-y0)
		for ox := 0; ox < ow; ox++ {
			x0 := ox*st - pad
			kxLo, kxHi := max(0, -x0), min(k, in.W-x0)
			outRow := out.Data[(oy*ow+ox)*oc:][:oc]
			ch := 0
			for ; ch+4 <= oc; ch += 4 {
				var a0, a1, a2, a3 float32
				for ky := kyLo; ky < kyHi; ky++ {
					ib := ((y0+ky)*in.W+x0+kxLo)*oc + ch
					wb := (ky*k+kxLo)*oc + ch
					for kx := kxLo; kx < kxHi; kx++ {
						ir, wr := in.Data[ib:ib+4:ib+4], w[wb:wb+4:wb+4]
						a0 += ir[0] * wr[0]
						a1 += ir[1] * wr[1]
						a2 += ir[2] * wr[2]
						a3 += ir[3] * wr[3]
						ib += oc
						wb += oc
					}
				}
				setBiased(outRow[ch:], d.bias[ch:], a0, a1, a2, a3)
			}
			for ; ch < oc; ch++ {
				var a float32
				for ky := kyLo; ky < kyHi; ky++ {
					ib := ((y0+ky)*in.W+x0+kxLo)*oc + ch
					wb := (ky*k+kxLo)*oc + ch
					for kx := kxLo; kx < kxHi; kx++ {
						a += in.Data[ib] * w[wb]
						ib += oc
						wb += oc
					}
				}
				outRow[ch] = a + d.bias[ch]
			}
		}
	}
	macs := d.MACs(in.H, in.W, in.C)
	m.FP(macs * 2)
	m.Touch(macs * 4)
	m.Alloc(out.Bytes())
	return out, nil
}

// ReLU6 clamps activations to [0, 6] in place.
type ReLU6 struct{ name string }

var _ Layer = (*ReLU6)(nil)

// NewReLU6 builds the activation layer.
func NewReLU6(name string) *ReLU6 { return &ReLU6{name: name} }

// Name implements Layer.
func (r *ReLU6) Name() string { return r.name }

// OutShape implements Layer.
func (r *ReLU6) OutShape(h, w, c int) (int, int, int) { return h, w, c }

// MACs implements Layer.
func (r *ReLU6) MACs(h, w, c int) int64 { return int64(h) * int64(w) * int64(c) }

// Forward implements Layer.
func (r *ReLU6) Forward(m *meter.Context, in Tensor) (Tensor, error) {
	for i, v := range in.Data {
		in.Data[i] = relu6(v)
	}
	m.FP(int64(in.Len()))
	m.Touch(int64(in.Len()) * 4)
	return in, nil
}

// relu6 is `if v < 0 { v = 0 } else if v > 6 { v = 6 }` computed on
// the IEEE-754 bits, which the compiler turns into conditional moves:
// activations change sign at random, so the float branches mispredict
// about every other element. -0 and NaN of either sign pass through
// unchanged, as they do the comparisons.
func relu6(v float32) float32 {
	const six = 0x40C00000 // math.Float32bits(6)
	b := math.Float32bits(v)
	if b-0x80000001 < 0x7F800000 { // b in (-0, -Inf]: below zero
		b = 0
	}
	if b-(six+1) < 0x7F800000-six { // b in (6, +Inf]: above six
		b = six
	}
	return math.Float32frombits(b)
}

// GlobalAvgPool reduces H×W×C to 1×1×C.
type GlobalAvgPool struct{ name string }

var _ Layer = (*GlobalAvgPool)(nil)

// NewGlobalAvgPool builds the pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.name }

// OutShape implements Layer.
func (g *GlobalAvgPool) OutShape(_, _, c int) (int, int, int) { return 1, 1, c }

// MACs implements Layer.
func (g *GlobalAvgPool) MACs(h, w, c int) int64 { return int64(h) * int64(w) * int64(c) }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(m *meter.Context, in Tensor) (Tensor, error) {
	out := NewTensor(1, 1, in.C)
	n := float32(in.H * in.W)
	for y := 0; y < in.H; y++ {
		for x := 0; x < in.W; x++ {
			base := (y*in.W + x) * in.C
			for c := 0; c < in.C; c++ {
				out.Data[c] += in.Data[base+c]
			}
		}
	}
	for c := 0; c < in.C; c++ {
		out.Data[c] /= n
	}
	m.FP(int64(in.Len()) + int64(in.C))
	m.Touch(int64(in.Len()) * 4)
	m.Alloc(out.Bytes())
	return out, nil
}

// Dense is a fully connected layer over a 1×1×C input.
type Dense struct {
	name    string
	in, out int
	weights []float32 // [in][out]
	bias    []float32
}

var _ Layer = (*Dense)(nil)

// NewDense builds a fully connected layer.
func NewDense(name string, in, out int, r *rng) *Dense {
	d := &Dense{
		name:    name,
		in:      in,
		out:     out,
		weights: make([]float32, in*out),
		bias:    make([]float32, out),
	}
	fillWeights(d.weights, in, r)
	fillWeights(d.bias, 4, r)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// OutShape implements Layer.
func (d *Dense) OutShape(_, _, _ int) (int, int, int) { return 1, 1, d.out }

// MACs implements Layer.
func (d *Dense) MACs(_, _, _ int) int64 { return int64(d.in) * int64(d.out) }

// Forward implements Layer.
func (d *Dense) Forward(m *meter.Context, in Tensor) (Tensor, error) {
	if in.Len() != d.in {
		return Tensor{}, fmt.Errorf("mlinfer: %s: input size %d, want %d", d.name, in.Len(), d.in)
	}
	out := NewTensor(1, 1, d.out)
	// Row by row, as the weights lie: one input's products go into every
	// output's running sum before the next input's.
	o := out.Data
	for i, v := range in.Data {
		row := d.weights[i*d.out:][:len(o)]
		for j, w := range row {
			o[j] += v * w
		}
	}
	for j, b := range d.bias[:len(o)] {
		o[j] += b
	}
	macs := d.MACs(0, 0, 0)
	m.FP(macs * 2)
	m.Touch(macs * 4)
	m.Alloc(out.Bytes())
	return out, nil
}

// Softmax normalizes a 1×1×C vector into a probability distribution.
type Softmax struct{ name string }

var _ Layer = (*Softmax)(nil)

// NewSoftmax builds the softmax head.
func NewSoftmax(name string) *Softmax { return &Softmax{name: name} }

// Name implements Layer.
func (s *Softmax) Name() string { return s.name }

// OutShape implements Layer.
func (s *Softmax) OutShape(h, w, c int) (int, int, int) { return h, w, c }

// MACs implements Layer.
func (s *Softmax) MACs(h, w, c int) int64 { return int64(h) * int64(w) * int64(c) * 4 }

// Forward implements Layer.
func (s *Softmax) Forward(m *meter.Context, in Tensor) (Tensor, error) {
	maxV := in.Data[0]
	for _, v := range in.Data {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range in.Data {
		e := math.Exp(float64(v - maxV))
		in.Data[i] = float32(e)
		sum += e
	}
	if sum == 0 {
		return Tensor{}, fmt.Errorf("mlinfer: %s: degenerate logits", s.name)
	}
	for i := range in.Data {
		in.Data[i] = float32(float64(in.Data[i]) / sum)
	}
	m.FP(int64(in.Len()) * 8)
	return in, nil
}
