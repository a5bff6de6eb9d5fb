// Package mlinfer is ConfBench's machine-learning inference substrate:
// a pure-Go convolutional neural network engine standing in for the
// TensorFlow Lite + MobileNet setup of the paper's confidential-ML
// experiment (§IV-C, Fig. 3).
//
// The engine implements the layer types MobileNet needs — standard and
// depthwise convolutions, ReLU6, global average pooling, a fully
// connected classifier head, and softmax — with real float32
// arithmetic. A MobileNetV1-style network with deterministic
// pseudo-random weights classifies synthetic 1-MB RGB images (the
// paper uses 40 diversified 1-MB images), metering multiply-
// accumulates as floating-point work so the TEE cost models price the
// workload like the real thing: CPU-bound dense arithmetic.
package mlinfer

import (
	"fmt"
	"math"
)

// Tensor is a dense float32 tensor in HWC layout (height, width,
// channels). A fully connected vector uses H=W=1.
type Tensor struct {
	H, W, C int
	Data    []float32
}

// NewTensor allocates a zero tensor of the given shape.
func NewTensor(h, w, c int) Tensor {
	return Tensor{H: h, W: w, C: c, Data: make([]float32, h*w*c)}
}

// At returns the element at (y, x, ch).
func (t Tensor) At(y, x, ch int) float32 {
	return t.Data[(y*t.W+x)*t.C+ch]
}

// Set stores v at (y, x, ch).
func (t Tensor) Set(y, x, ch int, v float32) {
	t.Data[(y*t.W+x)*t.C+ch] = v
}

// Len returns the number of elements.
func (t Tensor) Len() int { return len(t.Data) }

// Bytes returns the storage size in bytes.
func (t Tensor) Bytes() int64 { return int64(len(t.Data)) * 4 }

// ShapeString renders the shape for error messages.
func (t Tensor) ShapeString() string { return fmt.Sprintf("%dx%dx%d", t.H, t.W, t.C) }

// rng is a deterministic xorshift64* generator for weight init.
type rng uint64

func newRNG(seed uint64) *rng {
	r := rng(seed | 1)
	return &r
}

func (r *rng) next() uint64 {
	v := uint64(*r)
	v ^= v >> 12
	v ^= v << 25
	v ^= v >> 27
	*r = rng(v)
	return v * 0x2545F4914F6CDD1D
}

// float returns a float in [-0.5, 0.5).
func (r *rng) float() float32 {
	return float32(r.next()>>11)/float32(1<<53) - 0.5
}

// fillWeights initializes data with He-uniform pseudo-random values:
// uniform in ±√(6/fanIn), giving variance 2/fanIn. This keeps the
// activation signal alive through the 13-block stack — with smaller
// scales the input washes out and every image classifies identically.
func fillWeights(data []float32, fanIn int, r *rng) {
	if fanIn < 1 {
		fanIn = 1
	}
	bound := 2 * float32(math.Sqrt(6/float64(fanIn)))
	for i := range data {
		data[i] = r.float() * bound
	}
}
