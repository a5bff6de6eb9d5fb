package workloads

import (
	"bytes"
	"compress/flate"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"text/template"

	"confbench/internal/meter"
)

// mixedWorkloads returns catalog entries exercising mixed resource
// patterns (serialization, crypto, compression, templating) drawn from
// the FaaSdom and FaaSBenchmark suites.
func mixedWorkloads() []Workload {
	return []Workload{
		{
			Name: "base64", Kind: KindMixed, DefaultScale: 48,
			Description: "base64 encode/decode round trips over scale×64-KiB blocks",
			Run:         runBase64,
		},
		{
			Name: "json", Kind: KindMixed, DefaultScale: 600,
			Description: "JSON marshal/unmarshal of synthetic order records",
			Run:         runJSON,
		},
		{
			Name: "hashing", Kind: KindMixed, DefaultScale: 24,
			Description: "SHA-256 over scale×256-KiB buffers",
			Run:         runHashing,
		},
		{
			Name: "compress", Kind: KindMixed, DefaultScale: 4,
			Description: "DEFLATE compress/decompress of scale-MiB text",
			Run:         runCompress,
		},
		{
			Name: "crypto", Kind: KindMixed, DefaultScale: 12,
			Description: "AES-GCM encrypt/decrypt of scale×256-KiB messages",
			Run:         runCrypto,
		},
		{
			Name: "regexmatch", Kind: KindMixed, DefaultScale: 4000,
			Description: "regular-expression scan over generated access logs",
			Run:         runRegexMatch,
		},
		{
			Name: "dynamichtml", Kind: KindMixed, DefaultScale: 300,
			Description: "template rendering of a product-listing page",
			Run:         runDynamicHTML,
		},
		{
			Name: "wordcount", Kind: KindMixed, DefaultScale: 60,
			Description: "word-frequency count over scale×16-KiB of text",
			Run:         runWordCount,
		},
	}
}

// runBase64 encodes and decodes blocks, verifying round trips.
func runBase64(m *meter.Context, scale int) (string, error) {
	if scale <= 0 {
		return "", fmt.Errorf("base64: scale must be positive, got %d", scale)
	}
	block := pattern(64<<10, 13)
	m.Alloc(int64(len(block)))
	var encodedBytes int64
	for i := 0; i < scale; i++ {
		enc := base64.StdEncoding.EncodeToString(block)
		dec, err := base64.StdEncoding.DecodeString(enc)
		if err != nil {
			return "", fmt.Errorf("base64: decode: %w", err)
		}
		if !bytes.Equal(dec, block) {
			return "", fmt.Errorf("base64: round trip mismatch at %d", i)
		}
		encodedBytes += int64(len(enc))
		m.Alloc(int64(len(enc)) + int64(len(dec)))
	}
	m.CPU(encodedBytes * 2)
	m.Touch(encodedBytes * 2)
	return fmt.Sprintf("encoded %d KiB", encodedBytes>>10), nil
}

type orderRecord struct {
	ID       int               `json:"id"`
	Customer string            `json:"customer"`
	Items    []orderItem       `json:"items"`
	Tags     map[string]string `json:"tags"`
	Total    float64           `json:"total"`
}

type orderItem struct {
	SKU   string  `json:"sku"`
	Qty   int     `json:"qty"`
	Price float64 `json:"price"`
}

// runJSON serializes and re-parses synthetic order records.
func runJSON(m *meter.Context, scale int) (string, error) {
	if scale <= 0 {
		return "", fmt.Errorf("json: scale must be positive, got %d", scale)
	}
	var totalBytes int64
	for i := 0; i < scale; i++ {
		rec := orderRecord{
			ID:       i,
			Customer: fmt.Sprintf("customer-%04d", i%500),
			Items: []orderItem{
				{SKU: "A-100", Qty: 1 + i%3, Price: 9.99},
				{SKU: "B-200", Qty: 2, Price: 19.5},
				{SKU: "C-300", Qty: i % 5, Price: 3.25},
			},
			Tags:  map[string]string{"region": "eu-west", "tier": "gold"},
			Total: float64(i) * 1.17,
		}
		data, err := json.Marshal(rec)
		if err != nil {
			return "", fmt.Errorf("json: marshal: %w", err)
		}
		var back orderRecord
		if err := json.Unmarshal(data, &back); err != nil {
			return "", fmt.Errorf("json: unmarshal: %w", err)
		}
		if back.ID != rec.ID || len(back.Items) != len(rec.Items) {
			return "", fmt.Errorf("json: round trip mismatch at %d", i)
		}
		totalBytes += int64(len(data))
		m.Alloc(int64(len(data)) * 3)
	}
	m.CPU(totalBytes * 6)
	return fmt.Sprintf("%d records, %d bytes", scale, totalBytes), nil
}

// runHashing digests buffers with SHA-256.
func runHashing(m *meter.Context, scale int) (string, error) {
	if scale <= 0 {
		return "", fmt.Errorf("hashing: scale must be positive, got %d", scale)
	}
	buf := pattern(256<<10, 17)
	m.Alloc(int64(len(buf)))
	var digest [32]byte
	for i := 0; i < scale; i++ {
		buf[0] = byte(i)
		digest = sha256.Sum256(buf)
	}
	total := int64(scale) * int64(len(buf))
	m.CPU(total * 3)
	m.Touch(total)
	return fmt.Sprintf("last=%x", digest[:4]), nil
}

// appendPadded appends v (≥ 0) in decimal, zero-padded to width
// digits, as fmt's %0<width>d does.
func appendPadded(b []byte, v, width int) []byte {
	digits := 1
	for x := v; x >= 10; x /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(v), 10)
}

// compressibleText builds n bytes of log-like text, appended into one
// buffer with room for the line that crosses n:
//
//	ts=%010d level=%s component=storage msg="flushed segment %d to tier %d"\n
func compressibleText(n int) []byte {
	levels := [...]string{"info", "warn", "debug"}
	b := make([]byte, 0, n+128)
	for i := 0; len(b) < n; i++ {
		b = append(b, "ts="...)
		b = appendPadded(b, i, 10)
		b = append(b, " level="...)
		b = append(b, levels[i%3]...)
		b = append(b, " component=storage msg=\"flushed segment "...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, " to tier "...)
		b = strconv.AppendInt(b, int64(i%4), 10)
		b = append(b, "\"\n"...)
	}
	return b[:n]
}

// runCompress round-trips text through DEFLATE.
func runCompress(m *meter.Context, scale int) (string, error) {
	if scale <= 0 {
		return "", fmt.Errorf("compress: scale must be positive, got %d", scale)
	}
	text := compressibleText(scale * mib)
	m.Alloc(int64(len(text)))

	var comp bytes.Buffer
	w, err := flate.NewWriter(&comp, flate.DefaultCompression)
	if err != nil {
		return "", fmt.Errorf("compress: new writer: %w", err)
	}
	if _, err := w.Write(text); err != nil {
		return "", fmt.Errorf("compress: write: %w", err)
	}
	if err := w.Close(); err != nil {
		return "", fmt.Errorf("compress: close: %w", err)
	}

	r := flate.NewReader(bytes.NewReader(comp.Bytes()))
	// Room for the text plus the free tail ReadFrom wants before the
	// read that returns EOF, so the buffer never regrows.
	inflated := bytes.NewBuffer(make([]byte, 0, len(text)+bytes.MinRead))
	if _, err := inflated.ReadFrom(r); err != nil {
		return "", fmt.Errorf("compress: inflate: %w", err)
	}
	if err := r.Close(); err != nil {
		return "", fmt.Errorf("compress: close reader: %w", err)
	}
	back := inflated.Bytes()
	if !bytes.Equal(back, text) {
		return "", fmt.Errorf("compress: round trip mismatch")
	}
	m.CPU(int64(len(text)) * 12)
	m.Touch(int64(len(text)) * 3)
	m.Alloc(int64(comp.Len()) + int64(len(back)))
	ratio := float64(comp.Len()) / float64(len(text))
	return fmt.Sprintf("ratio=%.3f", ratio), nil
}

// runCrypto encrypts and decrypts messages with AES-256-GCM.
func runCrypto(m *meter.Context, scale int) (string, error) {
	if scale <= 0 {
		return "", fmt.Errorf("crypto: scale must be positive, got %d", scale)
	}
	key := pattern(32, 23)
	block, err := aes.NewCipher(key)
	if err != nil {
		return "", fmt.Errorf("crypto: cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return "", fmt.Errorf("crypto: gcm: %w", err)
	}
	msg := pattern(256<<10, 29)
	nonce := pattern(gcm.NonceSize(), 31)
	m.Alloc(int64(len(msg)))
	var total int64
	for i := 0; i < scale; i++ {
		msg[0] = byte(i)
		ct := gcm.Seal(nil, nonce, msg, nil)
		pt, err := gcm.Open(nil, nonce, ct, nil)
		if err != nil {
			return "", fmt.Errorf("crypto: open: %w", err)
		}
		if !bytes.Equal(pt, msg) {
			return "", fmt.Errorf("crypto: round trip mismatch at %d", i)
		}
		total += int64(len(ct))
		m.Alloc(int64(len(ct)) + int64(len(pt)))
	}
	m.CPU(total * 4)
	m.Touch(total * 2)
	return fmt.Sprintf("sealed %d KiB", total>>10), nil
}

var logLineRE = regexp.MustCompile(`^(\d+\.\d+\.\d+\.\d+) - \S+ \[([^\]]+)\] "(GET|POST|PUT) ([^"]*)" (\d{3}) (\d+)$`)

// runRegexMatch scans generated access-log lines with a non-trivial
// pattern, counting matches and summing response sizes.
func runRegexMatch(m *meter.Context, scale int) (string, error) {
	if scale <= 0 {
		return "", fmt.Errorf("regexmatch: scale must be positive, got %d", scale)
	}
	methods := [...]string{"GET", "POST", "PUT", "PATCH"}
	matched, totalSize := 0, 0
	var chars int64
	// %d.%d.0.%d - frank [10/Oct/2025:13:55:%02d] "%s /api/v1/items/%d" %d %d
	line := make([]byte, 0, 128)
	for i := 0; i < scale; i++ {
		line = strconv.AppendInt(line[:0], int64(10+i%80), 10)
		line = append(line, '.')
		line = strconv.AppendInt(line, int64(i%256), 10)
		line = append(line, ".0."...)
		line = strconv.AppendInt(line, int64(i%254+1), 10)
		line = append(line, " - frank [10/Oct/2025:13:55:"...)
		line = appendPadded(line, i%60, 2)
		line = append(line, "] \""...)
		line = append(line, methods[i%len(methods)]...)
		line = append(line, " /api/v1/items/"...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, "\" "...)
		line = strconv.AppendInt(line, int64(200+(i%3)*100), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(512+i%4096), 10)
		chars += int64(len(line))
		if sub := logLineRE.FindSubmatch(line); sub != nil {
			matched++
			if sz, err := strconv.Atoi(string(sub[6])); err == nil {
				totalSize += sz
			}
		}
	}
	m.CPU(chars * 20)
	m.Touch(chars * 4)
	if matched == 0 {
		return "", fmt.Errorf("regexmatch: nothing matched")
	}
	return fmt.Sprintf("%d/%d matched, %d bytes", matched, scale, totalSize), nil
}

var pageTemplate = template.Must(template.New("page").Parse(`<html><head><title>{{.Title}}</title></head>
<body><h1>{{.Title}}</h1><ul>
{{- range .Products}}
<li><b>{{.Name}}</b> — {{.Price}} EUR ({{.Stock}} in stock)</li>
{{- end}}
</ul><footer>page {{.Page}}</footer></body></html>`))

type product struct {
	Name  string
	Price float64
	Stock int
}

// runDynamicHTML renders product-listing pages from a template.
func runDynamicHTML(m *meter.Context, scale int) (string, error) {
	if scale <= 0 {
		return "", fmt.Errorf("dynamichtml: scale must be positive, got %d", scale)
	}
	products := make([]product, 24)
	for i := range products {
		products[i] = product{Name: fmt.Sprintf("Widget %c-%d", 'A'+i%26, i), Price: 9.99 + float64(i), Stock: 100 - i}
	}
	var rendered int64
	var buf bytes.Buffer
	for p := 0; p < scale; p++ {
		buf.Reset()
		err := pageTemplate.Execute(&buf, map[string]any{
			"Title":    fmt.Sprintf("Catalog page %d", p),
			"Products": products,
			"Page":     p,
		})
		if err != nil {
			return "", fmt.Errorf("dynamichtml: render: %w", err)
		}
		rendered += int64(buf.Len())
	}
	m.CPU(rendered * 8)
	m.Alloc(rendered)
	return fmt.Sprintf("%d pages, %d bytes", scale, rendered), nil
}

// runWordCount counts word frequencies over generated text.
func runWordCount(m *meter.Context, scale int) (string, error) {
	if scale <= 0 {
		return "", fmt.Errorf("wordcount: scale must be positive, got %d", scale)
	}
	text := string(compressibleText(scale * 16 << 10))
	words := strings.Fields(text)
	freq := make(map[string]int, 1024)
	for _, w := range words {
		freq[w]++
	}
	best, bestN := "", 0
	for w, n := range freq {
		if n > bestN || (n == bestN && w < best) {
			best, bestN = w, n
		}
	}
	m.CPU(int64(len(words)) * 12)
	m.Alloc(int64(len(text)))
	m.Touch(int64(len(text)) * 2)
	return fmt.Sprintf("%d words, top=%q×%d", len(words), best, bestN), nil
}
