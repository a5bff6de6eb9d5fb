// Package drill runs cluster drills written as data. A scenario is a
// scenarios/*.spec file, one step per line ('#' starts a comment):
//
//	slo:<objective spec>     deployed at boot; before boot only
//	chaos:<fault spec>       armed from this line on (before boot: while booting)
//	boot:tee=sev-snp,tdx:hosts=2:warm=2:shards=2:mem=8:breaker=1000/1s
//	     [:functions=N][:workload=W][:quota=TENANT/RATE/BURST]
//	invoke:N[:tee=K][:tenant=T][:async][:fail]
//	attest:N[:tee=K][:fail]
//	sweep                    one federation sweep, on a synthetic clock
//	drain:<host>             live-migrating host drain
//	kill:<shard-or-host>     close one shard or host agent, undrained
//	restart                  Close and re-boot on the same durable dir
//
// Drive boots the topology through confbench.New and runs the script;
// Finish makes the same four checks for every scenario. There is no
// expect language: what one scenario wants beyond the fixed checks is
// Go, asserted by the caller on the Run and its still-open cluster.
package drill

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"confbench"
	"confbench/internal/colonspec"
	"confbench/internal/slo"
	"confbench/internal/tee"
	"confbench/internal/workloads"
)

// MaxSpecBytes bounds a scenario file; maxCount bounds any count in it.
const (
	MaxSpecBytes = 64 << 10
	maxCount     = 100_000
)

// What a ParseError wraps, when not the SLO or fault grammar's own error.
var (
	ErrTooLarge    = errors.New("scenario larger than 64 KiB")
	ErrOrder       = errors.New("want slo and chaos lines, then one boot line, then the script")
	ErrUnknownVerb = errors.New("unknown verb")
	ErrUnknownKey  = errors.New("unknown key or flag")
	ErrBadCount    = errors.New("want a count in [1, 100000]")
	ErrBadValue    = errors.New("bad value")
)

// ParseError is every error Parse returns: the offending line (0 = the
// file as a whole) and why.
type ParseError struct {
	Line int
	Err  error
}

func (e *ParseError) Error() string { return fmt.Sprintf("scenario line %d: %v", e.Line, e.Err) }
func (e *ParseError) Unwrap() error { return e.Err }

// Scenario is one parsed spec file.
type Scenario struct {
	Steps     []Step             // every line in order: slo, chaos, boot, the script
	SLO       string             // the slo lines, comma-joined
	Topology  []confbench.Option // the boot line
	Functions int                // fn-0 … fn-(N-1), each invoked at scale 1
	Workload  string             // what every function runs
}

// Step is one line. Text is the line as written; the report echoes it.
type Step struct {
	Line        int
	Text, Verb  string
	N           int      // invoke, attest
	TEE         tee.Kind // "" = rotate over the deployed kinds
	Tenant      string
	Async, Fail bool
	Target      string                // drain, kill
	Faults      []confbench.FaultSpec // chaos
}

// Parse reads a scenario.
func Parse(src []byte) (*Scenario, error) {
	if len(src) > MaxSpecBytes {
		return nil, &ParseError{0, ErrTooLarge}
	}
	sc := &Scenario{Functions: 1, Workload: "cpustress",
		Topology: []confbench.Option{confbench.WithGuestMemoryMB(16)}}
	var slos []string
	booted := false
	for i, raw := range strings.Split(string(src), "\n") {
		line, _, _ := strings.Cut(raw, "#")
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		verb, rest, _ := strings.Cut(line, ":")
		st := Step{Line: i + 1, Text: line, Verb: verb}
		var err error
		misplaced := !booted // a script step before boot
		switch verb {
		case "slo":
			_, err = slo.ParseSpecs(rest)
			slos, misplaced = append(slos, rest), booted
		case "chaos":
			st.Faults, err = confbench.ParseFaultSpecs(rest)
			misplaced = false
		case "boot":
			err, misplaced = sc.parseBoot(rest), booted
			booted = true
		default:
			err = st.parse(rest)
		}
		if err == nil && misplaced {
			err = ErrOrder
		}
		if err != nil {
			return nil, &ParseError{i + 1, err}
		}
		sc.Steps = append(sc.Steps, st)
	}
	if !booted {
		return nil, &ParseError{0, ErrOrder}
	}
	sc.SLO = strings.Join(slos, ",")
	return sc, nil
}

// parseBoot reads the boot line's key=value options.
func (sc *Scenario) parseBoot(rest string) error {
	words, opts := colonspec.Words(rest)
	if len(words) > 0 {
		return fmt.Errorf("%w %q", ErrUnknownKey, words[0])
	}
	for _, o := range opts {
		n, err := strconv.Atoi(o.Value)
		count := err == nil && n >= 1 && n <= maxCount
		var opt confbench.Option
		ok := true
		switch o.Key {
		case "hosts":
			opt, ok = confbench.WithHostsPerTEE(n), count
		case "warm":
			opt, ok = confbench.WithWarmPool(n), count
		case "shards":
			opt, ok = confbench.WithShards(n), count
		case "mem":
			opt, ok = confbench.WithGuestMemoryMB(n), count
		case "functions":
			sc.Functions, ok = n, count
		case "workload":
			_, err := workloads.Default().Lookup(o.Value)
			sc.Workload, ok = o.Value, err == nil
		case "tee":
			var kinds []tee.Kind
			for _, k := range colonspec.List(o.Value) {
				kinds, ok = append(kinds, tee.Kind(k)), ok && tee.Kind(k).Secure()
			}
			opt = confbench.WithTEEs(kinds...)
		case "breaker": // THRESHOLD/COOLDOWN
			threshold, cooldown, _ := strings.Cut(o.Value, "/")
			t, err1 := strconv.Atoi(threshold)
			d, err2 := time.ParseDuration(cooldown)
			opt, ok = confbench.WithBreakerThreshold(t, d), err1 == nil && err2 == nil
		case "quota": // TENANT/RATE/BURST
			f := append(strings.Split(o.Value, "/"), "", "")
			rate, err1 := strconv.ParseFloat(f[1], 64)
			burst, err2 := strconv.Atoi(f[2])
			opt = confbench.WithTenantQuota(f[0], confbench.TenantLimits{RatePerSec: rate, Burst: burst})
			ok = len(f) == 5 && f[0] != "" && err1 == nil && err2 == nil
		default:
			return fmt.Errorf("%w %q", ErrUnknownKey, o.Key)
		}
		if !ok {
			return fmt.Errorf("%w %s=%q", ErrBadValue, o.Key, o.Value)
		}
		if opt != nil {
			sc.Topology = append(sc.Topology, opt)
		}
	}
	return nil
}

// parse reads what follows a script step's verb.
func (st *Step) parse(rest string) error {
	words, opts := colonspec.Words(rest)
	switch st.Verb {
	case "invoke", "attest":
		if len(words) == 0 {
			return ErrBadCount
		}
		n, err := strconv.Atoi(words[0])
		if st.N = n; err != nil || n < 1 || n > maxCount {
			return fmt.Errorf("%w, got %q", ErrBadCount, words[0])
		}
		for _, w := range words[1:] {
			switch {
			case w == "fail":
				st.Fail = true
			case w == "async" && st.Verb == "invoke":
				st.Async = true
			default:
				return fmt.Errorf("%w %q", ErrUnknownKey, w)
			}
		}
		for _, o := range opts {
			switch {
			case o.Key == "tee" && tee.Kind(o.Value).Secure():
				st.TEE = tee.Kind(o.Value)
			case o.Key == "tenant" && st.Verb == "invoke":
				st.Tenant = o.Value
			default:
				return fmt.Errorf("%w %s=%q", ErrUnknownKey, o.Key, o.Value)
			}
		}
	case "drain", "kill":
		if len(words) != 1 || words[0] == "" || len(opts) > 0 {
			return fmt.Errorf("%w: want %s:<name>", ErrBadValue, st.Verb)
		}
		st.Target = words[0]
	case "sweep", "restart":
		if rest != "" {
			return fmt.Errorf("%w %q", ErrUnknownKey, rest)
		}
	default:
		return fmt.Errorf("%w %q", ErrUnknownVerb, st.Verb)
	}
	return nil
}
