// Package colonspec tokenizes the one command-line spec grammar
// ConfBench's flags share — the fault plane's -chaos specs and the SLO
// engine's -slo objectives:
//
//	a:b:c[:key=value...][,a:b:c...]
//
// Three positional tokens, then key=value options, several specs
// comma-separated — and the scenario files' step lines (internal/drill),
// whose bare words and key=value options Words tells apart. The package
// only splits; what the tokens mean, and which of them are valid, stays
// with each grammar's parser.
package colonspec

import (
	"fmt"
	"strings"
)

// Option is one key=value token after the positional ones.
type Option struct{ Key, Value string }

// List splits a comma-separated spec list into whitespace-trimmed
// items. Blank items come back as "": -chaos skips them, -slo refuses
// them.
func List(s string) []string {
	items := strings.Split(s, ",")
	for i := range items {
		items[i] = strings.TrimSpace(items[i])
	}
	return items
}

// Split tokenizes one spec into its three positional tokens and its
// options, untrimmed. usage spells the grammar out in the error a spec
// with fewer than three tokens gets.
func Split(s, usage string) (pos [3]string, opts []Option, err error) {
	parts := strings.Split(s, ":")
	if len(parts) < len(pos) {
		return pos, nil, fmt.Errorf("spec %q: want %s", s, usage)
	}
	copy(pos[:], parts)
	for _, opt := range parts[len(pos):] {
		key, value, ok := strings.Cut(opt, "=")
		if !ok {
			return pos, nil, fmt.Errorf("spec %q: option %q: want key=value", s, opt)
		}
		opts = append(opts, Option{Key: key, Value: value})
	}
	return pos, opts, nil
}

// Words tokenizes the colon-separated remainder of a scenario line
// (what follows the verb, e.g. "30:tee=tdx:fail") into its bare words
// and its key=value options, each in written order. An empty remainder
// holds neither.
func Words(s string) (words []string, opts []Option) {
	if s == "" {
		return nil, nil
	}
	for _, tok := range strings.Split(s, ":") {
		if key, value, ok := strings.Cut(tok, "="); ok {
			opts = append(opts, Option{Key: key, Value: value})
		} else {
			words = append(words, tok)
		}
	}
	return words, opts
}
