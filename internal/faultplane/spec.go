package faultplane

import (
	"fmt"
	"strconv"
	"time"

	"confbench/internal/colonspec"
)

// ParseSpecs parses the -chaos command-line grammar: a comma-separated
// list of specs, each
//
//	point:kind:probability[:tee=KIND][:host=NAME][:latency=DUR][:msg=TEXT]
//
// e.g.
//
//	hostagent.exec:error:1:host=sev-snp-host
//	relay.accept:drop:0.05,tee.transition:latency:0.2:tee=tdx:latency=2ms
func ParseSpecs(s string) ([]Spec, error) {
	var specs []Spec
	for _, raw := range colonspec.List(s) {
		if raw == "" {
			continue
		}
		spec, err := ParseSpec(raw)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("faultplane: empty chaos spec %q", s)
	}
	return specs, nil
}

// ParseSpec parses one spec in the -chaos grammar.
func ParseSpec(s string) (Spec, error) {
	pos, opts, err := colonspec.Split(s, "point:kind:probability[:key=value...]")
	if err != nil {
		return Spec{}, fmt.Errorf("faultplane: %w", err)
	}
	prob, err := strconv.ParseFloat(pos[2], 64)
	if err != nil {
		return Spec{}, fmt.Errorf("faultplane: spec %q: probability: %w", s, err)
	}
	spec := Spec{Point: Point(pos[0]), Kind: Kind(pos[1]), Probability: prob}
	for _, opt := range opts {
		switch opt.Key {
		case "tee":
			spec.TEE = opt.Value
		case "host":
			spec.Host = opt.Value
		case "latency":
			d, err := time.ParseDuration(opt.Value)
			if err != nil {
				return Spec{}, fmt.Errorf("faultplane: spec %q: latency: %w", s, err)
			}
			spec.Latency = d
		case "msg":
			spec.Message = opt.Value
		default:
			return Spec{}, fmt.Errorf("faultplane: spec %q: unknown option %q", s, opt.Key)
		}
	}
	if err := spec.validate(); err != nil {
		return Spec{}, fmt.Errorf("%w (in %q)", err, s)
	}
	return spec, nil
}
