package langs

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"confbench/internal/faas"
	"confbench/internal/meter"
	"confbench/internal/tee"
	"confbench/internal/workloads"
)

func TestSevenLanguages(t *testing.T) {
	names := Names()
	if len(names) != 7 {
		t.Fatalf("got %d languages, the paper evaluates 7", len(names))
	}
	want := map[string]bool{
		LangPython: true, LangNode: true, LangRuby: true, LangLua: true,
		LangLuaJIT: true, LangGo: true, LangWasm: true,
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected language %q", n)
		}
	}
}

func TestPaperVersions(t *testing.T) {
	// Spot-check the per-platform versions from §IV-B.
	p, err := ProfileFor(LangPython)
	if err != nil {
		t.Fatal(err)
	}
	if p.Version(tee.KindTDX) != "3.12.3" || p.Version(tee.KindSEV) != "3.10.12" || p.Version(tee.KindCCA) != "3.11.8" {
		t.Errorf("python versions = %v", p.Versions)
	}
	node, _ := ProfileFor(LangNode)
	if node.Version(tee.KindCCA) != "20.12.2" {
		t.Errorf("node CCA version = %s", node.Version(tee.KindCCA))
	}
	// Unknown platform falls back to TDX.
	if p.Version(tee.KindNone) != "3.12.3" {
		t.Errorf("fallback version = %s", p.Version(tee.KindNone))
	}
}

func TestProfileForUnknown(t *testing.T) {
	if _, err := ProfileFor("perl"); err == nil {
		t.Error("unknown language accepted")
	}
}

func TestHeavierRuntimesWeighMore(t *testing.T) {
	py, _ := ProfileFor(LangPython)
	lua, _ := ProfileFor(LangLua)
	goP, _ := ProfileFor(LangGo)
	if py.InterpFactor <= lua.InterpFactor {
		t.Error("python should interpret slower than lua")
	}
	if lua.InterpFactor <= goP.InterpFactor {
		t.Error("lua should interpret slower than go")
	}
	if py.WorkingSetMB <= lua.WorkingSetMB {
		t.Error("python working set should exceed lua's")
	}
	if py.AllocPerOp <= goP.AllocPerOp {
		t.Error("python boxes more than go")
	}
}

func TestAmplifyScalesWork(t *testing.T) {
	raw := meter.Usage{
		meter.CPUOps:         1_000_000,
		meter.FPOps:          500_000,
		meter.BytesAllocated: 1 << 20,
		meter.Syscalls:       100,
	}
	py, _ := ProfileFor(LangPython)
	goP, _ := ProfileFor(LangGo)
	pyAmp := Amplify(py, raw)
	goAmp := Amplify(goP, raw)
	if pyAmp.Get(meter.CPUOps) <= goAmp.Get(meter.CPUOps) {
		t.Error("python CPU amplification should exceed go's")
	}
	if pyAmp.Get(meter.BytesAllocated) <= goAmp.Get(meter.BytesAllocated) {
		t.Error("python allocation amplification should exceed go's")
	}
	if pyAmp.Get(meter.BytesTouched) <= goAmp.Get(meter.BytesTouched) {
		t.Error("python memory traffic should exceed go's")
	}
	if pyAmp.Get(meter.PageFaults) <= goAmp.Get(meter.PageFaults) {
		t.Error("python fresh-page faults should exceed go's")
	}
	// Amplification must never lose the original I/O traffic.
	if pyAmp.Get(meter.Syscalls) < raw.Get(meter.Syscalls) {
		t.Error("amplified syscalls below raw")
	}
}

func TestBootstrapUsageReflectsWorkingSet(t *testing.T) {
	py, _ := ProfileFor(LangPython)
	lua, _ := ProfileFor(LangLua)
	if BootstrapUsage(py).Get(meter.BytesTouched) <= BootstrapUsage(lua).Get(meter.BytesTouched) {
		t.Error("python bootstrap should touch more memory than lua")
	}
}

func TestRuntimeLauncherRuns(t *testing.T) {
	catalog := workloads.Default()
	l, err := NewRuntimeLauncher(LangPython, tee.KindTDX, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if l.Language() != LangPython || l.Version() != "3.12.3" {
		t.Errorf("launcher metadata: %s %s", l.Language(), l.Version())
	}
	res, err := l.Launch(context.Background(), faas.Function{Name: "f", Language: LangPython, Workload: "factors"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == "" {
		t.Error("empty output")
	}
	if res.RunUsage.Get(meter.CPUOps) == 0 {
		t.Error("no usage recorded")
	}
	if res.BootstrapUsage.Get(meter.BytesTouched) == 0 {
		t.Error("no bootstrap usage recorded")
	}
}

func TestRuntimeLauncherRejectsWrongLanguage(t *testing.T) {
	l, _ := NewRuntimeLauncher(LangPython, tee.KindTDX, nil)
	if _, err := l.Launch(context.Background(), faas.Function{Name: "f", Language: LangGo, Workload: "factors"}, 1); err == nil {
		t.Error("wrong-language function accepted")
	}
}

func TestRuntimeLauncherUsesDefaultScale(t *testing.T) {
	l, _ := NewRuntimeLauncher(LangGo, tee.KindTDX, nil)
	res, err := l.Launch(context.Background(), faas.Function{Name: "f", Language: LangGo, Workload: "fib"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "fib(22)=17711" { // catalog default scale is 22
		t.Errorf("output = %q", res.Output)
	}
}

func TestWasmLauncherRunsBytecode(t *testing.T) {
	wl, err := NewWasmLauncher(tee.KindTDX, workloads.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !wl.HasBytecode("cpustress") || !wl.HasBytecode("fib") || !wl.HasBytecode("primes") {
		t.Error("expected bytecode mappings missing")
	}
	if wl.HasBytecode("logging") {
		t.Error("logging should not have bytecode")
	}
	res, err := wl.Launch(context.Background(), faas.Function{Name: "f", Language: LangWasm, Workload: "fib"}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "fib(15) = 610" {
		t.Errorf("wasm fib output = %q", res.Output)
	}
	if res.RunUsage.Get(meter.CPUOps) == 0 || res.RunUsage.Get(meter.BytesTouched) == 0 {
		t.Error("wasm run usage empty")
	}
}

func TestWasmLauncherFallsBack(t *testing.T) {
	wl, err := NewWasmLauncher(tee.KindTDX, workloads.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := wl.Launch(context.Background(), faas.Function{Name: "f", Language: LangWasm, Workload: "logging"}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == "" || res.RunUsage.Get(meter.LogLines) == 0 {
		t.Errorf("fallback run incomplete: %q %v", res.Output, res.RunUsage)
	}
}

func TestWasmLauncherClampsScale(t *testing.T) {
	wl, _ := NewWasmLauncher(tee.KindTDX, workloads.Default())
	// A huge fib argument must be clamped, not hang.
	res, err := wl.Launch(context.Background(), faas.Function{Name: "f", Language: LangWasm, Workload: "fib"}, 90)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == "" {
		t.Error("clamped run failed")
	}
}

func TestNewAllLaunchers(t *testing.T) {
	ls, err := NewAllLaunchers(tee.KindSEV, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 7 {
		t.Fatalf("got %d launchers", len(ls))
	}
	for lang, l := range ls {
		if l.Language() != lang {
			t.Errorf("launcher %q reports language %q", lang, l.Language())
		}
	}
	if _, ok := ls[LangWasm].(*WasmLauncher); !ok {
		t.Error("wasm launcher is not the bytecode one")
	}
}

func TestLaunchersProduceEqualOutputsAcrossLanguages(t *testing.T) {
	// The paper stresses a "common output across the diverse languages,
	// easing the comparison efforts": every launcher must compute the
	// same function result (Wasm bytecode paths excepted, they report
	// raw VM results).
	ls, err := NewAllLaunchers(tee.KindTDX, nil)
	if err != nil {
		t.Fatal(err)
	}
	fnFor := func(lang string) faas.Function {
		return faas.Function{Name: "f", Language: lang, Workload: "factors"}
	}
	want := ""
	for _, lang := range []string{LangGo, LangPython, LangRuby, LangLua, LangLuaJIT, LangNode} {
		res, err := ls[lang].Launch(context.Background(), fnFor(lang), 5040)
		if err != nil {
			t.Fatalf("%s: %v", lang, err)
		}
		if want == "" {
			want = res.Output
			continue
		}
		if res.Output != want {
			t.Errorf("%s output %q != %q", lang, res.Output, want)
		}
	}
}

// TestLaunchersArePure pins the contract the figure harness rests on:
// what a launcher returns — output, run usage, bootstrap usage — depends
// on the function and the scale alone. Not on what the launcher ran
// before (the Wasm launcher reuses one instance across its five bytecode
// exports), not on which instance ran it (the two VMs of a pair carry
// one launcher set each, and a body now executes on only one of them),
// and not on what runs beside it (Workers > 1 executes bodies
// concurrently). Every catalog workload goes through both launcher
// kinds: once alone, then — in reverse order, four at a time — again on
// the same launcher and on a second one.
func TestLaunchersArePure(t *testing.T) {
	catalog := workloads.Default()
	names := catalog.Names()
	if len(names) != 30 {
		t.Fatalf("catalog has %d workloads, want the paper's 30", len(names))
	}
	kinds := map[string]func() (faas.Launcher, error){
		"runtime": func() (faas.Launcher, error) { return NewRuntimeLauncher(LangPython, tee.KindTDX, catalog) },
		"wasm":    func() (faas.Launcher, error) { return NewWasmLauncher(tee.KindTDX, catalog) },
	}
	for kind, build := range kinds {
		first, err := build()
		if err != nil {
			t.Fatal(err)
		}
		second, err := build()
		if err != nil {
			t.Fatal(err)
		}
		launch := func(l faas.Launcher, name string) faas.LaunchResult {
			w, err := catalog.Lookup(name)
			if err != nil {
				t.Error(err)
				return faas.LaunchResult{}
			}
			scale := w.DefaultScale / 8 // the -quick size
			if scale < 1 {
				scale = 1
			}
			res, err := l.Launch(context.Background(), faas.Function{Name: name, Language: l.Language(), Workload: name}, scale)
			if err != nil {
				t.Errorf("%s/%s: %v", kind, name, err)
			}
			return res
		}

		want := make(map[string]faas.LaunchResult, len(names))
		bytecode := 0
		for _, name := range names {
			want[name] = launch(first, name)
			if wl, ok := first.(*WasmLauncher); ok && wl.HasBytecode(name) {
				bytecode++
			}
		}
		if kind == "wasm" && bytecode != 5 {
			t.Errorf("wasm pass ran %d bytecode mappings, want all 5", bytecode)
		}

		next := make(chan string)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for name := range next {
					for which, l := range []faas.Launcher{first, second} {
						if got := launch(l, name); !reflect.DeepEqual(got, want[name]) {
							t.Errorf("%s/%s is not pure: launcher %d returned\n%+v\nafter\n%+v", kind, name, which, got, want[name])
						}
					}
				}
			}()
		}
		for i := len(names) - 1; i >= 0; i-- {
			next <- names[i]
		}
		close(next)
		wg.Wait()
	}
}

// TestLaunchersArePureAcrossPlatforms pins what lets one cluster share
// an execution between its pairs: the launcher set a VM carries is built
// for its platform, yet what a launch returns depends on the function
// and the scale and not on the platform. Every catalog workload in
// every language, at the -quick size, returns one LaunchResult from the
// TDX, the SEV-SNP and the CCA launchers.
func TestLaunchersArePureAcrossPlatforms(t *testing.T) {
	catalog := workloads.Default()
	names := catalog.Names()
	kinds := []tee.Kind{tee.KindTDX, tee.KindSEV, tee.KindCCA}
	// results[k][w*7+l] is platform k's launch of workload w in language
	// l; the platforms run side by side.
	results := make([][]faas.LaunchResult, len(kinds))
	var wg sync.WaitGroup
	for k, kind := range kinds {
		set, err := NewAllLaunchers(kind, catalog)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range names {
				w, err := catalog.Lookup(name)
				if err != nil {
					t.Error(err)
					return
				}
				for _, lang := range Names() {
					fn := faas.Function{Name: name + "-" + lang, Language: lang, Workload: name}
					res, err := set[lang].Launch(context.Background(), fn, max(w.DefaultScale/8, 1))
					if err != nil {
						t.Errorf("%s %s/%s: %v", kind, name, lang, err)
					}
					results[k] = append(results[k], res)
				}
			}
		}()
	}
	wg.Wait()
	for k, kind := range kinds {
		if len(results[k]) != 30*7 {
			t.Fatalf("%s launched %d cells, want 30 workloads x 7 languages", kind, len(results[k]))
		}
	}
	for k := 1; k < len(kinds); k++ {
		for c, want := range results[0] {
			if got := results[k][c]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s on %s returned\n%+v\non %s\n%+v", names[c/7], Names()[c%7], kinds[k], got, kinds[0], want)
			}
		}
	}
}

// TestRawRunIsPureAcrossLanguages pins what lets one raw run serve all
// seven runtimes: a runtime amplifies the usage of what the workload
// computes and does not change it. On the TDX, SEV-SNP and CCA launcher
// sets, every language's launch of every catalog workload, at the
// -quick size, equals its own finish step applied to a raw run taken
// from another language's launcher; and the split reports "not
// amplified" exactly for the Wasm bytecode workloads.
func TestRawRunIsPureAcrossLanguages(t *testing.T) {
	catalog := workloads.Default()
	names := catalog.Names()
	languages := Names()
	for _, kind := range []tee.Kind{tee.KindTDX, tee.KindSEV, tee.KindCCA} {
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			set, err := NewAllLaunchers(kind, catalog)
			if err != nil {
				t.Fatal(err)
			}
			wasm := set[LangWasm].(*WasmLauncher)
			amplifier := func(lang, workload string) (*RuntimeLauncher, bool) {
				a, ok := set[lang].(Amplifying)
				if !ok {
					t.Fatalf("%s launcher %T does not split", lang, set[lang])
				}
				return a.Amplifier(workload)
			}
			notAmplified := 0
			for _, name := range names {
				w, err := catalog.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				scale := max(w.DefaultScale/8, 1)
				for i, lang := range languages {
					amp, ok := amplifier(lang, name)
					if bytecode := lang == LangWasm && wasm.HasBytecode(name); ok == bytecode {
						t.Errorf("%s/%s: amplified %v, bytecode %v", name, lang, ok, bytecode)
					}
					if !ok {
						notAmplified++
						continue
					}
					// The raw run comes from the next language that
					// amplifies this workload.
					var donor *RuntimeLauncher
					var donorLang string
					for j := 1; donor == nil; j++ {
						donorLang = languages[(i+j)%len(languages)]
						donor, _ = amplifier(donorLang, name)
					}
					raw, err := donor.Run(context.Background(), faas.Function{Name: name, Language: donorLang, Workload: name}, scale)
					if err != nil {
						t.Fatalf("%s/%s raw run: %v", name, donorLang, err)
					}
					want, err := set[lang].Launch(context.Background(), faas.Function{Name: name, Language: lang, Workload: name}, scale)
					if err != nil {
						t.Fatalf("%s/%s: %v", name, lang, err)
					}
					if got := amp.Finish(raw); !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s finished from a %s raw run returned\n%+v\nlaunched\n%+v", name, lang, donorLang, got, want)
					}
				}
			}
			if notAmplified != 5 {
				t.Errorf("%d cells not amplified, want the 5 Wasm bytecode workloads", notAmplified)
			}
		})
	}
}
