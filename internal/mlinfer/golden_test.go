package mlinfer

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"confbench/internal/meter"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// floatsSum is the SHA-256 of the IEEE-754 bits of data, little-endian.
func floatsSum(data []float32) [sha256.Size]byte {
	buf := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return sha256.Sum256(buf)
}

// TestForwardGolden pins, for each input size the figures run and a
// handful of dataset images, the raw image bytes, the decoded tensor's
// bits, the full softmax output's bits, the top-3 labels and the
// metered Usage of decode + classify. Recorded on amd64 before the
// layer kernels were rewritten; a kernel change that keeps this file
// byte-identical classifies and charges every image as before.
func TestForwardGolden(t *testing.T) {
	var got bytes.Buffer
	for _, size := range []int{48, 64, 96} {
		model, err := NewMobileNet(MobileNetConfig{InputSize: size})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, 1, 2, 3, 4, 5, 39} {
			raw := GenerateImage(i)
			m := meter.NewContext()
			img, err := DecodeAndResize(m, raw, size)
			if err != nil {
				t.Fatal(err)
			}
			imgSum := floatsSum(img.Data)
			preds, err := model.Classify(m, img, 3)
			if err != nil {
				t.Fatal(err)
			}
			probs, err := model.Forward(meter.NewContext(), img)
			if err != nil {
				t.Fatal(err)
			}
			labels := make([]string, len(preds))
			for j, p := range preds {
				labels[j] = p.Label
			}
			fmt.Fprintf(&got, "size=%d image=%d raw=%x tensor=%x softmax=%x top3=%s usage=%s\n",
				size, i, sha256.Sum256(raw), imgSum, floatsSum(probs.Data),
				strings.Join(labels, ","), m.Snapshot().String())
		}
	}
	file := filepath.Join("testdata", "forward.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("forward differs from %s:\n got:\n%s\nwant:\n%s", file, got.Bytes(), want)
	}
}
