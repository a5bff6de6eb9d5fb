package bench

import (
	"encoding/json"
	"fmt"
	"io"
)

// Report bundles every experiment's results for machine-readable
// export (plotting scripts, CI regression tracking). Fields are nil
// when the corresponding experiment was not run.
type Report struct {
	ML          []MLResult          `json:"ml,omitempty"`
	DBMS        []DBMSResult        `json:"dbms,omitempty"`
	Storage     []DBMSStorageResult `json:"storage,omitempty"`
	UnixBench   []UnixBenchResult   `json:"unixbench,omitempty"`
	Attestation []AttestationResult `json:"attestation,omitempty"`
	FaaS        []FaaSResult        `json:"faas,omitempty"`
	CoLocation  []CoLocationResult  `json:"colocation,omitempty"`
	// Firmware and Containers price a variant secure VM as Secure against
	// the TDX confidential VM as Normal; Collateral is TDX cold, then cached.
	Firmware   []FaaSResult        `json:"firmware,omitempty"`
	Collateral []AttestationResult `json:"collateral,omitempty"`
	Containers []FaaSResult        `json:"containers,omitempty"`
	// Meta carries free-form run parameters (trials, scales, seed).
	Meta map[string]any `json:"meta,omitempty"`
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("bench: encode report: %w", err)
	}
	return nil
}

// ReadReport parses a report written by WriteJSON.
func ReadReport(r io.Reader) (*Report, error) {
	var out Report
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("bench: decode report: %w", err)
	}
	return &out, nil
}
