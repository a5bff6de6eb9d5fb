// Package faas implements ConfBench's Function-as-a-Service layer:
// the function database the gateway keeps per supported language, and
// the launcher abstraction that instantiates a language runtime and
// executes a function inside a VM (§III-A).
//
// A Function binds a registered name to a catalog workload and an
// implementation language; the per-language launchers in the langs
// sub-package execute it, amplifying the workload's metered usage
// according to the runtime's weight (interpretation overhead, boxed
// allocation, GC traffic, resident working set). Timing measurements
// exclude runtime bootstrap, matching §IV-D; the bootstrap cost is
// reported separately.
package faas

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"confbench/internal/meter"
)

// Registry errors.
var (
	ErrFunctionExists   = errors.New("faas: function already registered")
	ErrFunctionNotFound = errors.New("faas: function not found")
	ErrLanguageUnknown  = errors.New("faas: language not supported")
)

// Function is one uploaded FaaS function.
type Function struct {
	// Name is the user-visible function name.
	Name string `json:"name"`
	// Language selects the runtime (python, node, ruby, lua, luajit,
	// go, wasm).
	Language string `json:"language"`
	// Workload names the catalog workload the function body performs.
	Workload string `json:"workload"`
	// Source is the uploaded function body (stored verbatim; the
	// simulated runtimes execute the equivalent catalog workload).
	Source []byte `json:"source,omitzero"`
}

// Validate checks the function's required fields.
func (f Function) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("faas: function has no name")
	}
	if f.Language == "" {
		return fmt.Errorf("faas: function %q has no language", f.Name)
	}
	if f.Workload == "" {
		return fmt.Errorf("faas: function %q has no workload", f.Name)
	}
	return nil
}

// LaunchResult reports one function execution.
type LaunchResult struct {
	// Output is the function's textual result.
	Output string
	// RunUsage is the metered usage of the function body only.
	RunUsage meter.Usage
	// BootstrapUsage is the runtime-startup usage, excluded from the
	// paper's timing but reported for completeness.
	BootstrapUsage meter.Usage
}

// Launcher instantiates a runtime for one language and executes
// functions with given arguments, recording usage.
type Launcher interface {
	// Language returns the language key this launcher serves.
	Language() string
	// Version returns the runtime version string for the platform the
	// launcher was configured for.
	Version() string
	// Launch executes fn at the given scale. A canceled ctx aborts the
	// launch before (and is re-checked after) the workload body runs.
	Launch(ctx context.Context, fn Function, scale int) (LaunchResult, error)
}

// DB is the gateway's function database: uploaded functions, keyed by
// name, validated against the set of supported languages.
type DB struct {
	mu        sync.RWMutex
	functions map[string]Function
	languages map[string]bool
}

// NewDB creates a function database accepting the given languages.
func NewDB(languages []string) *DB {
	langs := make(map[string]bool, len(languages))
	for _, l := range languages {
		langs[l] = true
	}
	return &DB{
		functions: make(map[string]Function, 16),
		languages: langs,
	}
}

// Register stores a new function.
func (db *DB) Register(f Function) error {
	if err := f.Validate(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.languages[f.Language] {
		return fmt.Errorf("%w: %q", ErrLanguageUnknown, f.Language)
	}
	if _, ok := db.functions[f.Name]; ok {
		return fmt.Errorf("%w: %q", ErrFunctionExists, f.Name)
	}
	db.functions[f.Name] = f
	return nil
}

// Lookup returns the function registered under name.
func (db *DB) Lookup(name string) (Function, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, ok := db.functions[name]
	if !ok {
		return Function{}, fmt.Errorf("%w: %q", ErrFunctionNotFound, name)
	}
	return f, nil
}

// Remove deletes a function.
func (db *DB) Remove(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.functions[name]; !ok {
		return fmt.Errorf("%w: %q", ErrFunctionNotFound, name)
	}
	delete(db.functions, name)
	return nil
}

// Names lists registered function names in sorted order.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.functions))
	for n := range db.functions {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Languages lists supported language keys in sorted order.
func (db *DB) Languages() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.languages))
	for l := range db.languages {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
