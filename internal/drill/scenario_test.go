package drill

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseErrors: every way a spec can be wrong comes back as a
// *ParseError naming the line and wrapping the kind.
func TestParseErrors(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		line      int
		want      error
	}{
		{"unknown verb", "boot:\nreboot", 2, ErrUnknownVerb},
		{"unknown verb before boot", "explode:3\nboot:", 1, ErrUnknownVerb},
		{"missing boot", "# nothing\nchaos:hostagent.exec:error:1", 0, ErrOrder},
		{"empty file", "", 0, ErrOrder},
		{"duplicate boot", "boot:\ninvoke:1\nboot:hosts=2", 3, ErrOrder},
		{"step before boot", "\n\ninvoke:3\nboot:", 3, ErrOrder},
		{"slo after boot", "boot:\nslo:a:availability:success>=99%", 2, ErrOrder},
		{"bad count", "boot:\ninvoke:many", 2, ErrBadCount},
		{"zero count", "boot:\nattest:0", 2, ErrBadCount},
		{"huge count", "boot:\ninvoke:100001", 2, ErrBadCount},
		{"missing count", "boot:\ninvoke", 2, ErrBadCount},
		{"unknown boot key", "boot:hosts=2:racks=4", 1, ErrUnknownKey},
		{"retired boot key", "boot:scale=2", 1, ErrUnknownKey},
		{"bare boot word", "boot:big", 1, ErrUnknownKey},
		{"unknown step key", "boot:\ninvoke:1:zone=eu", 2, ErrUnknownKey},
		{"unknown step flag", "boot:\ninvoke:1:twice", 2, ErrUnknownKey},
		{"async attest", "boot:\nattest:1:async", 2, ErrUnknownKey},
		{"unknown tee on a step", "boot:\ninvoke:1:tee=sgx", 2, ErrUnknownKey},
		{"sweep with an argument", "boot:\nsweep:now", 2, ErrUnknownKey},
		{"unknown tee at boot", "boot:tee=tdx,sgx", 1, ErrBadValue},
		{"bad hosts", "boot:hosts=0", 1, ErrBadValue},
		{"unknown workload", "boot:workload=nope", 1, ErrBadValue},
		{"bad breaker", "boot:breaker=3", 1, ErrBadValue},
		{"bad quota", "boot:quota=greedy/fast/1", 1, ErrBadValue},
		{"short quota", "boot:quota=greedy/2", 1, ErrBadValue},
		{"drain without a host", "boot:\ndrain", 2, ErrBadValue},
		{"oversize file", "boot:\n" + strings.Repeat("# padding\n", MaxSpecBytes/10+1), 0, ErrTooLarge},
	} {
		_, err := Parse([]byte(tc.src))
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != tc.line || !errors.Is(err, tc.want) {
			t.Errorf("%s: Parse = %v, want line %d: %v", tc.name, err, tc.line, tc.want)
		}
	}
	// The embedded grammars' own errors surface with the line too.
	for _, src := range []string{"slo:not-a-spec\nboot:", "chaos:nowhere:error:1\nboot:", "boot:\nchaos:hostagent.exec:error:lots"} {
		var pe *ParseError
		if _, err := Parse([]byte(src)); !errors.As(err, &pe) || pe.Line == 0 {
			t.Errorf("Parse(%q) = %v, want a ParseError with its line", src, err)
		}
	}
}

// TestParse pins what an accepted spec parses to.
func TestParse(t *testing.T) {
	sc, err := Parse([]byte(`# a comment
slo:a:availability:success>=99%   # trailing comment
slo:b:latency:p99<250ms:tee=tdx
chaos:hostagent.exec:error:1.0:host=tdx-host
boot:tee=tdx,sev-snp:hosts=2:warm=2:shards=2:mem=8:breaker=3/1h:functions=4:workload=iostress:quota=greedy/2/1

invoke:30:tee=tdx:tenant=acme:async:fail
attest:5
chaos:relay.accept:drop:0.5,tee.transition:latency:0.2:latency=2ms
sweep
drain:tdx-host
kill:shard-1
restart
`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.SLO != "a:availability:success>=99%,b:latency:p99<250ms:tee=tdx" {
		t.Errorf("SLO = %q", sc.SLO)
	}
	if sc.Functions != 4 || sc.Workload != "iostress" || len(sc.Topology) != 8 {
		t.Errorf("functions %d workload %q, %d topology options", sc.Functions, sc.Workload, len(sc.Topology))
	}
	var verbs []string
	for _, st := range sc.Steps {
		verbs = append(verbs, st.Verb)
	}
	if got := strings.Join(verbs, " "); got != "slo slo chaos boot invoke attest chaos sweep drain kill restart" {
		t.Errorf("verbs = %s", got)
	}
	inv := sc.Steps[4]
	if inv.Line != 7 || inv.N != 30 || inv.TEE != "tdx" || inv.Tenant != "acme" || !inv.Async || !inv.Fail ||
		inv.Text != "invoke:30:tee=tdx:tenant=acme:async:fail" {
		t.Errorf("invoke step = %+v", inv)
	}
	if at := sc.Steps[5]; at.N != 5 || at.TEE != "" || at.Fail {
		t.Errorf("attest step = %+v", at)
	}
	if len(sc.Steps[2].Faults) != 1 || len(sc.Steps[6].Faults) != 2 {
		t.Errorf("chaos steps carry %d and %d faults, want 1 and 2", len(sc.Steps[2].Faults), len(sc.Steps[6].Faults))
	}
	if sc.Steps[8].Target != "tdx-host" || sc.Steps[9].Target != "shard-1" {
		t.Errorf("targets = %q, %q", sc.Steps[8].Target, sc.Steps[9].Target)
	}
	// Defaults: one cpustress function at scale 1 on 16 MiB guests.
	if sc, err = Parse([]byte("boot:")); err != nil || sc.Functions != 1 || sc.Workload != "cpustress" || len(sc.Topology) != 1 {
		t.Errorf("bare boot = %+v, %v", sc, err)
	}
}

// committedSpecs reads every scenarios/*.spec of the repo.
func committedSpecs(t testing.TB) map[string][]byte {
	paths, err := filepath.Glob("../../scenarios/*.spec")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed specs (err=%v)", err)
	}
	specs := map[string][]byte{}
	for _, p := range paths {
		if specs[p], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	return specs
}

func TestCommittedSpecsParse(t *testing.T) {
	for path, src := range committedSpecs(t) {
		if _, err := Parse(src); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// FuzzParseScenario: the parser never panics; what it rejects it
// rejects with a ParseError whose line exists; what it accepts has one
// boot, nothing but objectives and faults before it, no objective after
// it — and parses again, to the same script, from its own step texts.
func FuzzParseScenario(f *testing.F) {
	for _, src := range committedSpecs(f) {
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := Parse([]byte(src))
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) || pe.Line < 0 || pe.Line > strings.Count(src, "\n")+1 {
				t.Fatalf("Parse(%q) = %v, want a ParseError on a line of the input", src, err)
			}
			return
		}
		boots, texts := 0, []string(nil)
		for _, st := range sc.Steps {
			texts = append(texts, st.Text)
			switch {
			case st.Verb == "boot":
				boots++
			case boots == 0 && st.Verb != "slo" && st.Verb != "chaos", boots > 0 && st.Verb == "slo":
				t.Fatalf("Parse(%q) accepted %q on the wrong side of boot", src, st.Text)
			}
		}
		if boots != 1 {
			t.Fatalf("Parse(%q) accepted %d boot lines", src, boots)
		}
		again, err := Parse([]byte(strings.Join(texts, "\n")))
		if err != nil || len(again.Steps) != len(sc.Steps) || again.SLO != sc.SLO {
			t.Fatalf("Parse(%q) accepted, but its own step texts parse to %+v, %v", src, again, err)
		}
		for i, st := range again.Steps {
			if want := sc.Steps[i]; st.Verb != want.Verb || st.N != want.N || st.TEE != want.TEE || st.Target != want.Target ||
				st.Tenant != want.Tenant || st.Async != want.Async || st.Fail != want.Fail || len(st.Faults) != len(want.Faults) {
				t.Fatalf("step %d reparsed as %+v, want %+v", i, st, want)
			}
		}
	})
}
