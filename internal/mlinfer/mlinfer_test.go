package mlinfer

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"confbench/internal/meter"
)

func smallModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewMobileNet(MobileNetConfig{InputSize: 32, Alpha: 0.25, Classes: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTensorAccessors(t *testing.T) {
	tn := NewTensor(2, 3, 4)
	if tn.Len() != 24 || tn.Bytes() != 96 {
		t.Errorf("len/bytes = %d/%d", tn.Len(), tn.Bytes())
	}
	tn.Set(1, 2, 3, 42)
	if tn.At(1, 2, 3) != 42 {
		t.Error("Set/At mismatch")
	}
	if tn.ShapeString() != "2x3x4" {
		t.Errorf("shape = %s", tn.ShapeString())
	}
}

func TestConv2DShapes(t *testing.T) {
	r := newRNG(1)
	conv := NewConv2D("c", 3, 2, 3, 8, r)
	h, w, c := conv.OutShape(32, 32, 3)
	if h != 16 || w != 16 || c != 8 {
		t.Errorf("out shape = %dx%dx%d", h, w, c)
	}
	in := NewTensor(32, 32, 3)
	out, err := conv.Forward(meter.NewContext(), in)
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 16 || out.W != 16 || out.C != 8 {
		t.Errorf("forward shape = %s", out.ShapeString())
	}
}

func TestConv2DRejectsWrongChannels(t *testing.T) {
	r := newRNG(1)
	conv := NewConv2D("c", 3, 1, 3, 8, r)
	if _, err := conv.Forward(meter.NewContext(), NewTensor(8, 8, 5)); err == nil {
		t.Error("wrong channel count accepted")
	}
	dw := NewDepthwiseConv2D("d", 3, 1, 4, r)
	if _, err := dw.Forward(meter.NewContext(), NewTensor(8, 8, 5)); err == nil {
		t.Error("depthwise wrong channels accepted")
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// A 1×1 conv with identity weights must reproduce its input.
	conv := &Conv2D{
		name: "id", kernel: 1, stride: 1, inCh: 2, outCh: 2,
		weights: []float32{1, 0, 0, 1}, // [1][1][in=2][out=2]
		bias:    []float32{0, 0},
	}
	in := NewTensor(2, 2, 2)
	for i := range in.Data {
		in.Data[i] = float32(i) + 1
	}
	out, err := conv.Forward(meter.NewContext(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Data {
		if math.Abs(float64(out.Data[i]-in.Data[i])) > 1e-6 {
			t.Fatalf("identity conv changed data at %d: %v vs %v", i, out.Data[i], in.Data[i])
		}
	}
}

func TestReLU6Clamps(t *testing.T) {
	relu := NewReLU6("r")
	in := NewTensor(1, 1, 3)
	in.Data[0], in.Data[1], in.Data[2] = -5, 3, 100
	out, err := relu.Forward(meter.NewContext(), in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data[0] != 0 || out.Data[1] != 3 || out.Data[2] != 6 {
		t.Errorf("relu6 = %v", out.Data)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	pool := NewGlobalAvgPool("p")
	in := NewTensor(2, 2, 1)
	in.Data = []float32{1, 2, 3, 4}
	out, err := pool.Forward(meter.NewContext(), in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Data[0] != 2.5 {
		t.Errorf("avgpool = %v", out.Data)
	}
}

func TestDense(t *testing.T) {
	d := &Dense{
		name: "fc", in: 2, out: 2,
		weights: []float32{1, 2, 3, 4}, // row-major [in][out]
		bias:    []float32{10, 20},
	}
	in := NewTensor(1, 1, 2)
	in.Data = []float32{1, 1}
	out, err := d.Forward(meter.NewContext(), in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data[0] != 14 || out.Data[1] != 26 {
		t.Errorf("dense = %v", out.Data)
	}
	if _, err := d.Forward(meter.NewContext(), NewTensor(1, 1, 3)); err == nil {
		t.Error("wrong input size accepted")
	}
}

func TestSoftmaxNormalizes(t *testing.T) {
	s := NewSoftmax("s")
	in := NewTensor(1, 1, 4)
	in.Data = []float32{1, 2, 3, 4}
	out, err := s.Forward(meter.NewContext(), in)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 1; i < len(out.Data); i++ {
		if out.Data[i-1] >= out.Data[i] {
			t.Error("softmax not monotone in logits")
		}
	}
	for _, p := range out.Data {
		if p < 0 || p > 1 {
			t.Errorf("probability %v out of range", p)
		}
		sum += float64(p)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestMobileNetForward(t *testing.T) {
	model := smallModel(t)
	m := meter.NewContext()
	in := NewTensor(32, 32, 3)
	out, err := model.Forward(m, in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 {
		t.Errorf("output classes = %d", out.Len())
	}
	if m.Get(meter.FPOps) == 0 {
		t.Error("forward metered no FP work")
	}
}

func TestMobileNetRejectsWrongInput(t *testing.T) {
	model := smallModel(t)
	if _, err := model.Forward(meter.NewContext(), NewTensor(16, 16, 3)); err == nil {
		t.Error("wrong input shape accepted")
	}
}

func TestMobileNetDeterministic(t *testing.T) {
	a := smallModel(t)
	b := smallModel(t)
	img, err := DecodeAndResize(meter.NewContext(), GenerateImage(3), 32)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := a.Classify(meter.NewContext(), img, 3)
	if err != nil {
		t.Fatal(err)
	}
	img2, _ := DecodeAndResize(meter.NewContext(), GenerateImage(3), 32)
	pb, err := b.Classify(meter.NewContext(), img2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa {
		if pa[i].Index != pb[i].Index {
			t.Errorf("prediction %d differs: %v vs %v", i, pa[i], pb[i])
		}
	}
}

func TestClassifyTopKOrdered(t *testing.T) {
	model := smallModel(t)
	img, _ := DecodeAndResize(meter.NewContext(), GenerateImage(0), 32)
	preds, err := model.Classify(meter.NewContext(), img, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 5 {
		t.Fatalf("got %d predictions", len(preds))
	}
	for i := 1; i < len(preds); i++ {
		if preds[i-1].Confidence < preds[i].Confidence {
			t.Error("predictions not sorted by confidence")
		}
	}
	if preds[0].Label == "" {
		t.Error("empty label")
	}
}

// fixedLayer outputs the same 1×1×C vector whatever it is given.
type fixedLayer struct{ out []float32 }

func (f fixedLayer) Name() string                         { return "fixed" }
func (f fixedLayer) MACs(_, _, _ int) int64               { return 0 }
func (f fixedLayer) OutShape(_, _, _ int) (int, int, int) { return 1, 1, len(f.out) }
func (f fixedLayer) Forward(_ *meter.Context, _ Tensor) (Tensor, error) {
	t := NewTensor(1, 1, len(f.out))
	copy(t.Data, f.out)
	return t, nil
}

// TestClassifyBreaksTiesByIndex: classes of equal probability rank the
// lower index first, whatever the other scores are, so a tie never goes
// to whichever order a sort happens to leave.
func TestClassifyBreaksTiesByIndex(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 100; n++ {
		out := make([]float32, 1000)
		for i := range out {
			out[i] = float32(r.Intn(50)) / 100
		}
		a, b := r.Intn(1000), r.Intn(1000)
		out[a], out[b] = 0.9, 0.9 // two tied maxima
		model := &Model{Name: "fixed", InputH: 1, InputW: 1, InputC: 1, Layers: []Layer{fixedLayer{out}}}
		preds, err := model.Classify(meter.NewContext(), NewTensor(1, 1, 1), 10)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, len(out))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return out[want[i]] > out[want[j]] })
		for i, p := range preds {
			if p.Index != want[i] || p.Confidence != out[want[i]] || p.Label != fmt.Sprintf("class-%d", want[i]) {
				t.Fatalf("case %d: rank %d is class %d (%v), want %d (%v)", n, i, p.Index, p.Confidence, want[i], out[want[i]])
			}
		}
	}
}

func TestDifferentImagesClassifyIndependently(t *testing.T) {
	// At least the confidences should differ across distinct images.
	model := smallModel(t)
	p0, _ := model.Classify(meter.NewContext(), mustImg(t, 0), 1)
	p1, _ := model.Classify(meter.NewContext(), mustImg(t, 17), 1)
	if p0[0].Confidence == p1[0].Confidence {
		t.Error("distinct images yield identical confidence — inputs likely ignored")
	}
}

func mustImg(t *testing.T, idx int) Tensor {
	t.Helper()
	img, err := DecodeAndResize(meter.NewContext(), GenerateImage(idx), 32)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestImageIsOneMB(t *testing.T) {
	img := GenerateImage(0)
	if len(img) != ImageBytes {
		t.Fatalf("image = %d bytes", len(img))
	}
	if ImageBytes < 1_000_000 || ImageBytes > 1_100_000 {
		t.Errorf("dataset images should be ≈1 MB, got %d", ImageBytes)
	}
}

func TestDatasetDiversified(t *testing.T) {
	imgs := [][]byte{GenerateImage(0), GenerateImage(1)}
	same := 0
	for i := 0; i < len(imgs[0]); i += 1024 {
		if imgs[0][i] == imgs[1][i] {
			same++
		}
	}
	if same > len(imgs[0])/1024/2 {
		t.Error("images 0 and 1 look identical — not diversified")
	}
}

func TestDecodeRejectsBadSize(t *testing.T) {
	if _, err := DecodeAndResize(meter.NewContext(), make([]byte, 100), 32); err == nil {
		t.Error("short image accepted")
	}
}

func TestDecodeNormalizesRange(t *testing.T) {
	img, err := DecodeAndResize(meter.NewContext(), GenerateImage(1), 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range img.Data {
		if v < -1.0001 || v > 1.0001 {
			t.Fatalf("pixel %v outside [-1,1]", v)
		}
	}
}

func TestTotalMACsPositiveAndScalesWithInput(t *testing.T) {
	small, _ := NewMobileNet(MobileNetConfig{InputSize: 32, Classes: 10})
	big, _ := NewMobileNet(MobileNetConfig{InputSize: 64, Classes: 10})
	if small.TotalMACs() <= 0 {
		t.Error("MACs not positive")
	}
	if big.TotalMACs() <= small.TotalMACs() {
		t.Error("larger input should need more MACs")
	}
}

// BenchmarkMLInference measures one MobileNet-style classification,
// decode included, at each input size: 96 is what the figures run.
func BenchmarkMLInference(b *testing.B) {
	for _, size := range []int{64, 96} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			model, err := NewMobileNet(MobileNetConfig{InputSize: size})
			if err != nil {
				b.Fatal(err)
			}
			raw := GenerateImage(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := meter.NewContext()
				img, err := DecodeAndResize(m, raw, size)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := model.Classify(m, img, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLayer times each kind of arithmetic layer of the 96×96
// model over the inputs it sees classifying image 0, and reports the
// cost per multiply-accumulate: stem is the 3×3 stride-2 Conv2D, dw the
// 13 depthwise convolutions, pw the 13 pointwise ones, dense the
// classifier.
func BenchmarkLayer(b *testing.B) {
	const size = 96
	model, err := NewMobileNet(MobileNetConfig{InputSize: size})
	if err != nil {
		b.Fatal(err)
	}
	t, err := DecodeAndResize(meter.NewContext(), GenerateImage(0), size)
	if err != nil {
		b.Fatal(err)
	}
	type call struct {
		layer Layer
		in    Tensor
	}
	kinds := map[string][]call{}
	for _, l := range model.Layers {
		kind := ""
		switch l := l.(type) {
		case *Conv2D:
			kind = "pw"
			if l.kernel != 1 {
				kind = "stem"
			}
		case *DepthwiseConv2D:
			kind = "dw"
		case *Dense:
			kind = "dense"
		}
		if kind != "" {
			kinds[kind] = append(kinds[kind], call{l, t})
		}
		if t, err = l.Forward(meter.NewContext(), t); err != nil {
			b.Fatal(err)
		}
	}
	for _, kind := range []string{"stem", "dw", "pw", "dense"} {
		b.Run(kind, func(b *testing.B) {
			var macs int64
			for _, c := range kinds[kind] {
				macs += c.layer.MACs(c.in.H, c.in.W, c.in.C)
			}
			m := meter.NewContext()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range kinds[kind] {
					if _, err := c.layer.Forward(m, c.in); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*macs), "ns/MAC")
		})
	}
}

// TestClassificationIsPure: image i of the dataset is the same on every
// call, and two models built from one config classify it alike and
// meter the same usage, so one cluster can price one inference per
// (input size, image) on every platform.
func TestClassificationIsPure(t *testing.T) {
	if !bytes.Equal(GenerateImage(2), GenerateImage(2)) {
		t.Error("image 2 differs between two calls")
	}
	type inference struct {
		preds []Prediction
		usage meter.Usage
	}
	var runs [2]inference
	for i := range runs {
		model, err := NewMobileNet(MobileNetConfig{InputSize: 48})
		if err != nil {
			t.Fatal(err)
		}
		m := meter.NewContext()
		img, err := DecodeAndResize(m, GenerateImage(2), 48)
		if err != nil {
			t.Fatal(err)
		}
		if runs[i].preds, err = model.Classify(m, img, 3); err != nil {
			t.Fatal(err)
		}
		runs[i].usage = m.Snapshot()
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("two models differ:\n%+v\n%+v", runs[0], runs[1])
	}
}
