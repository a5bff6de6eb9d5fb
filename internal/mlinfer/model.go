package mlinfer

import (
	"fmt"

	"confbench/internal/meter"
)

// Model is a sequential network.
type Model struct {
	Name   string
	InputH int
	InputW int
	InputC int
	Layers []Layer
	Labels []string
}

// Forward runs the network over an input tensor.
func (mo *Model) Forward(m *meter.Context, in Tensor) (Tensor, error) {
	if in.H != mo.InputH || in.W != mo.InputW || in.C != mo.InputC {
		return Tensor{}, fmt.Errorf("mlinfer: model %s expects %dx%dx%d input, got %s",
			mo.Name, mo.InputH, mo.InputW, mo.InputC, in.ShapeString())
	}
	t := in
	for _, l := range mo.Layers {
		var err error
		t, err = l.Forward(m, t)
		if err != nil {
			return Tensor{}, fmt.Errorf("mlinfer: layer %s: %w", l.Name(), err)
		}
	}
	return t, nil
}

// TotalMACs estimates the network's multiply-accumulate count.
func (mo *Model) TotalMACs() int64 {
	h, w, c := mo.InputH, mo.InputW, mo.InputC
	var total int64
	for _, l := range mo.Layers {
		total += l.MACs(h, w, c)
		h, w, c = l.OutShape(h, w, c)
	}
	return total
}

// Prediction is one classification outcome.
type Prediction struct {
	Label      string  `json:"label"`
	Index      int     `json:"index"`
	Confidence float32 `json:"confidence"`
}

// Classify runs the model on an image and returns the top-k classes,
// most probable first; equal probabilities rank the lower index first.
func (mo *Model) Classify(m *meter.Context, img Tensor, k int) ([]Prediction, error) {
	probs, err := mo.Forward(m, img)
	if err != nil {
		return nil, err
	}
	if k > probs.Len() {
		k = probs.Len()
	}
	// One pass keeps the best k seen so far in rank order: a class goes
	// in below every kept one at least as probable, which has a lower
	// index.
	out := make([]Prediction, 0, k)
	for i, p := range probs.Data {
		j := len(out)
		for j > 0 && p > out[j-1].Confidence {
			j--
		}
		if j == k {
			continue
		}
		if len(out) < k {
			out = append(out, Prediction{})
		}
		copy(out[j+1:], out[j:len(out)-1])
		out[j] = Prediction{Index: i, Confidence: p}
	}
	for i := range out {
		out[i].Label = fmt.Sprintf("class-%d", out[i].Index)
		if out[i].Index < len(mo.Labels) {
			out[i].Label = mo.Labels[out[i].Index]
		}
	}
	return out, nil
}

// MobileNetConfig parameterizes the MobileNetV1-style builder.
type MobileNetConfig struct {
	// InputSize is the square input resolution (paper-class MobileNet
	// uses 224; the default here is 96 to keep CI runs quick while
	// preserving the architecture).
	InputSize int
	// Alpha is the width multiplier (0 < alpha ≤ 1).
	Alpha float64
	// Classes is the classifier width (ImageNet uses 1000).
	Classes int
	// Seed drives deterministic weight initialization.
	Seed uint64
}

func (c MobileNetConfig) withDefaults() MobileNetConfig {
	if c.InputSize <= 0 {
		c.InputSize = 96
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.25
	}
	if c.Classes <= 0 {
		c.Classes = 1000
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed0de1
	}
	return c
}

// depthwiseBlock describes one separable block: a depthwise conv
// followed by a 1×1 pointwise conv.
type depthwiseBlock struct {
	stride int
	outCh  int
}

// NewMobileNet builds a MobileNetV1-style network: a strided 3×3 stem
// followed by 13 depthwise-separable blocks, global average pooling,
// and a dense softmax classifier — the same topology as the paper's
// MobileNet, width-scaled by Alpha.
func NewMobileNet(cfg MobileNetConfig) (*Model, error) {
	cfg = cfg.withDefaults()
	scale := func(ch int) int {
		v := int(float64(ch) * cfg.Alpha)
		if v < 4 {
			v = 4
		}
		return v
	}
	r := newRNG(cfg.Seed)
	blocks := []depthwiseBlock{
		{1, 64}, {2, 128}, {1, 128}, {2, 256}, {1, 256},
		{2, 512}, {1, 512}, {1, 512}, {1, 512}, {1, 512}, {1, 512},
		{2, 1024}, {1, 1024},
	}

	model := &Model{
		Name:   fmt.Sprintf("mobilenet-v1-%.2f-%d", cfg.Alpha, cfg.InputSize),
		InputH: cfg.InputSize,
		InputW: cfg.InputSize,
		InputC: 3,
	}
	ch := scale(32)
	model.Layers = append(model.Layers,
		NewConv2D("stem", 3, 2, 3, ch, r),
		NewReLU6("stem/relu6"),
	)
	for i, b := range blocks {
		out := scale(b.outCh)
		model.Layers = append(model.Layers,
			NewDepthwiseConv2D(fmt.Sprintf("block%d/dw", i+1), 3, b.stride, ch, r),
			NewReLU6(fmt.Sprintf("block%d/dw-relu", i+1)),
			NewConv2D(fmt.Sprintf("block%d/pw", i+1), 1, 1, ch, out, r),
			NewReLU6(fmt.Sprintf("block%d/pw-relu", i+1)),
		)
		ch = out
	}
	model.Layers = append(model.Layers,
		NewGlobalAvgPool("avgpool"),
		NewDense("classifier", ch, cfg.Classes, r),
		NewSoftmax("softmax"),
	)
	model.Labels = make([]string, cfg.Classes)
	for i := range model.Labels {
		model.Labels[i] = fmt.Sprintf("imagenet-%04d", i)
	}
	return model, nil
}

// ImageBytes is the raw size of one dataset image (~1 MB, matching the
// paper's 40 diversified 1-MB images).
const ImageBytes = 592 * 592 * 3

// GenerateImage synthesizes image idx of the dataset: a 592×592 RGB
// (≈1 MB) gradient-plus-texture pattern, deterministic per index.
func GenerateImage(idx int) []byte {
	const side = 592
	img := make([]byte, ImageBytes)
	r := newRNG(uint64(idx)*0x9E3779B9 + 12345)
	// Low-frequency gradient + per-image pseudo-random texture keeps
	// the 40 images "diversified" while deterministic.
	phase := byte(r.next())
	for y := 0; y < side; y++ {
		row := img[y*side*3 : (y+1)*side*3 : (y+1)*side*3]
		g := byte(y*255/side) ^ phase
		for x := 0; x < side; x++ {
			px := row[x*3 : x*3+3 : x*3+3]
			px[0] = byte(x*255/side) + phase
			px[1] = g
			px[2] = byte((x*y)>>6) + byte(r.next()&0x0f)
		}
	}
	return img
}

// DecodeAndResize converts a raw 592×592 RGB image into a normalized
// float tensor of the target size using bilinear interpolation —
// ConfBench's stand-in for the JPEG decode + resize preprocessing of
// the TFLite label_image demo.
func DecodeAndResize(m *meter.Context, raw []byte, size int) (Tensor, error) {
	const side = 592
	if len(raw) != ImageBytes {
		return Tensor{}, fmt.Errorf("mlinfer: raw image is %d bytes, want %d", len(raw), ImageBytes)
	}
	out := NewTensor(size, size, 3)
	fscale := float32(side-1) / float32(size-1)
	for y := 0; y < size; y++ {
		sy := float32(y) * fscale
		y0 := int(sy)
		fy := sy - float32(y0)
		y1 := y0 + 1
		if y1 >= side {
			y1 = side - 1
		}
		row0 := raw[y0*side*3 : (y0+1)*side*3 : (y0+1)*side*3]
		row1 := raw[y1*side*3 : (y1+1)*side*3 : (y1+1)*side*3]
		outRow := out.Data[y*size*3 : (y+1)*size*3 : (y+1)*size*3]
		for x := 0; x < size; x++ {
			sx := float32(x) * fscale
			x0 := int(sx)
			fx := sx - float32(x0)
			x1 := x0 + 1
			if x1 >= side {
				x1 = side - 1
			}
			p00 := row0[x0*3 : x0*3+3 : x0*3+3]
			p01 := row0[x1*3 : x1*3+3 : x1*3+3]
			p10 := row1[x0*3 : x0*3+3 : x0*3+3]
			p11 := row1[x1*3 : x1*3+3 : x1*3+3]
			px := outRow[x*3 : x*3+3 : x*3+3]
			for c := range px {
				v00 := float32(p00[c])
				v01 := float32(p01[c])
				v10 := float32(p10[c])
				v11 := float32(p11[c])
				top := v00 + (v01-v00)*fx
				bot := v10 + (v11-v10)*fx
				px[c] = (top+(bot-top)*fy)/127.5 - 1
			}
		}
	}
	m.Touch(int64(len(raw)))
	m.FP(int64(size) * int64(size) * 3 * 10)
	m.Alloc(out.Bytes())
	return out, nil
}
