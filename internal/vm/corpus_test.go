package vm

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"confbench/internal/cberr"
	"confbench/internal/faas"
)

// TestNilCorpusNeverHits: a pair without a corpus runs its body on
// every call, and still admits first.
func TestNilCorpusNeverHits(t *testing.T) {
	pair := tdxPair(t)
	var runs int
	for i := 0; i < 3; i++ {
		v, err := Shared(context.Background(), pair, "k", func(context.Context) (int, error) { runs++; return runs, nil })
		if err != nil || v != i+1 {
			t.Fatalf("call %d: %d, %v", i, v, err)
		}
	}
	if (*Corpus)(nil).Len() != 0 {
		t.Error("nil corpus has entries")
	}
	_ = pair.Normal.Stop()
	if _, err := Shared(context.Background(), pair, "k", func(context.Context) (int, error) { runs++; return 0, nil }); !errors.Is(err, ErrStopped) || runs != 3 {
		t.Errorf("stopped pair: err %v after %d runs", err, runs)
	}
}

// TestCorpusExecutesEachKeyOnce: concurrent misses on one key run its
// body once and all see its value; keys of distinct types with equal
// values stay apart.
func TestCorpusExecutesEachKeyOnce(t *testing.T) {
	pair := tdxPair(t)
	pair.Corpus = NewCorpus()
	type keyA struct{ n int }
	type keyB struct{ n int }
	var runs atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]int, 16)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := Shared(context.Background(), pair, keyA{1}, func(context.Context) (int, error) {
				runs.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[g] = v
		}()
	}
	close(release)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Errorf("16 concurrent callers ran the body %d times, want 1", n)
	}
	for g, v := range got {
		if v != 42 {
			t.Errorf("caller %d got %d", g, v)
		}
	}
	v, err := Shared(context.Background(), pair, keyB{1}, func(context.Context) (int, error) { runs.Add(1); return 7, nil })
	if err != nil || v != 7 || runs.Load() != 2 {
		t.Errorf("keyB{1} hit keyA{1}'s entry: %d, %v, %d runs", v, err, runs.Load())
	}
	if pair.Corpus.Len() != 2 {
		t.Errorf("Len = %d, want 2", pair.Corpus.Len())
	}
}

// TestCorpusNeverStoresErrors: a failed execution (an error or a
// panic) is returned to its caller and removed, so the next caller, or
// one that was waiting for it, runs the body again.
func TestCorpusNeverStoresErrors(t *testing.T) {
	pair := tdxPair(t)
	pair.Corpus = NewCorpus()
	boom := errors.New("boom")
	var runs int
	body := func(context.Context) (string, error) {
		if runs++; runs == 1 {
			return "", boom
		}
		return "ok", nil
	}
	if _, err := Shared(context.Background(), pair, 1, body); !errors.Is(err, boom) {
		t.Fatalf("first call: %v", err)
	}
	if pair.Corpus.Len() != 0 {
		t.Error("a failed execution was stored")
	}
	for i := 0; i < 2; i++ {
		if v, err := Shared(context.Background(), pair, 1, body); v != "ok" || err != nil {
			t.Fatalf("call %d: %q, %v", i, v, err)
		}
	}
	if runs != 2 {
		t.Errorf("body ran %d times, want 2 (one failure, one stored value)", runs)
	}

	func() {
		defer func() { _ = recover() }()
		_, _ = Shared(context.Background(), pair, 2, func(context.Context) (int, error) { panic("body") })
	}()
	if v, err := Shared(context.Background(), pair, 2, func(context.Context) (int, error) { return 3, nil }); v != 3 || err != nil {
		t.Errorf("after a panicking body: %d, %v", v, err)
	}

	// A caller waiting on an execution that fails runs the body itself.
	started, fail := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		_, err := Shared(context.Background(), pair, 3, func(context.Context) (int, error) {
			close(started)
			<-fail
			return 0, boom
		})
		done <- err
	}()
	<-started
	waiter := make(chan int)
	go func() {
		v, _ := Shared(context.Background(), pair, 3, func(context.Context) (int, error) { return 9, nil })
		waiter <- v
	}()
	close(fail)
	if err := <-done; !errors.Is(err, boom) {
		t.Errorf("failing caller: %v", err)
	}
	if v := <-waiter; v != 9 {
		t.Errorf("waiter got %d, want its own execution's 9", v)
	}
}

// TestCorpusHitStillAdmits: a stored value is refused to a canceled
// ctx and to a pair with either VM stopped, and a caller waiting on a
// running execution leaves on its own ctx.
func TestCorpusHitStillAdmits(t *testing.T) {
	pair := tdxPair(t)
	pair.Corpus = NewCorpus()
	fn := faas.Function{Name: "fib", Language: "go", Workload: "fib"}
	if _, err := pair.Execute(context.Background(), fn, 5); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pair.Execute(canceled, fn, 5); !errors.Is(err, cberr.ErrCanceled) {
		t.Errorf("hit on a canceled ctx: %v", err)
	}

	running, block := make(chan struct{}), make(chan struct{})
	go func() {
		_, _ = Shared(context.Background(), pair, "slow", func(context.Context) (int, error) {
			close(running)
			<-block
			return 1, nil
		})
	}()
	<-running
	waitCtx, stopWaiting := context.WithCancel(context.Background())
	waited := make(chan error)
	go func() {
		_, err := Shared(waitCtx, pair, "slow", func(context.Context) (int, error) { return 2, nil })
		waited <- err
	}()
	stopWaiting()
	if err := <-waited; !errors.Is(err, cberr.ErrCanceled) {
		t.Errorf("waiter whose ctx ended: %v", err)
	}
	close(block)

	for _, side := range []string{"secure", "normal"} {
		p := tdxPair(t)
		p.Corpus = pair.Corpus
		stopped := p.Secure
		if side == "normal" {
			stopped = p.Normal
		}
		_ = stopped.Stop()
		if _, err := p.Execute(context.Background(), fn, 5); !errors.Is(err, ErrStopped) {
			t.Errorf("hit with the %s VM stopped: %v", side, err)
		}
	}
}
