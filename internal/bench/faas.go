package bench

import (
	"context"
	"fmt"
	"slices"

	"confbench/internal/faas"
	"confbench/internal/faas/langs"
	"confbench/internal/stats"
	"confbench/internal/tee"
	"confbench/internal/vm"
	"confbench/internal/workloads"
)

// Cell is one heatmap cell: the ratio between mean secure and mean
// normal execution times over the trials, plus the raw samples for
// the Fig. 8 distributions.
type Cell struct {
	Workload string    `json:"workload"`
	Language string    `json:"language"`
	Ratio    float64   `json:"ratio"`
	SecureMs []float64 `json:"secure_ms"`
	NormalMs []float64 `json:"normal_ms"`
}

// FaaSResult is the Fig. 6/7 heatmap (and, with its raw samples, the
// Fig. 8 distribution data) for one platform.
type FaaSResult struct {
	Kind      tee.Kind `json:"tee"`
	Workloads []string `json:"workloads"`
	Languages []string `json:"languages"`
	// Cells is indexed [workload][language] following the two lists.
	Cells [][]Cell `json:"cells"`
}

// Cell returns the cell for (workload, language).
func (r FaaSResult) Cell(workload, language string) (Cell, error) {
	i, j := slices.Index(r.Workloads, workload), slices.Index(r.Languages, language)
	if i < 0 || j < 0 || i >= len(r.Cells) || j >= len(r.Cells[i]) {
		return Cell{}, fmt.Errorf("bench: no cell for %s/%s", workload, language)
	}
	return r.Cells[i][j], nil
}

// MeanRatio averages all cell ratios (a one-number platform summary).
func (r FaaSResult) MeanRatio() float64 {
	var all []float64
	for _, row := range r.Cells {
		for _, c := range row {
			all = append(all, c.Ratio)
		}
	}
	return stats.Mean(all)
}

// CellsBelowOne counts the cells where the secure VM was faster. No
// cost model factor is below 1, so each is a jitter dip on a cell whose
// noise-free ratio is near 1.
func (r FaaSResult) CellsBelowOne() int {
	var n int
	for _, row := range r.Cells {
		for _, c := range row {
			if c.Ratio < 1 {
				n++
			}
		}
	}
	return n
}

// FaaSOptions sizes the FaaS experiment.
type FaaSOptions struct {
	Options
	// Workloads restricts the catalog (nil = all).
	Workloads []string
	// Languages restricts the runtimes (nil = all seven).
	Languages []string
}

// FaaS reproduces the FaaS experiments (§IV-D, Figs. 6–8) on one
// platform pair: every (workload, language) function executes once (or
// is found in the pair's corpus), its execution is priced on the secure and on the normal VM under one
// key per trial, and the cell ratio is the ratio of mean execution
// times. Timings exclude runtime bootstrap, matching the paper's
// protocol.
func FaaS(ctx context.Context, pair vm.Pair, catalog *workloads.Registry, opts FaaSOptions) (FaaSResult, error) {
	opts.Options = opts.Options.WithDefaults()
	if catalog == nil {
		catalog = workloads.Default()
	}
	ws := opts.Workloads
	if ws == nil {
		ws = catalog.Names()
	}
	languages := opts.Languages
	if languages == nil {
		languages = langs.Names()
	}

	// Resolve scales up front so the worker pool only executes cells.
	scales := make([]int, len(ws))
	for i, w := range ws {
		entry, err := catalog.Lookup(w)
		if err != nil {
			return FaaSResult{}, err
		}
		scales[i] = entry.DefaultScale / opts.ScaleDivisor
		if scales[i] < 1 {
			scales[i] = 1
		}
	}

	// One execution per cell, cells in workload-major order, priced
	// under (workload, language, scale, trial) for each trial: a cell's
	// samples are the same whichever grid it is measured in.
	nLangs, trials := len(languages), opts.Trials
	p, err := measure(ctx, Runner{Workers: opts.Workers, Obs: opts.Obs}, pair, len(ws)*nLangs, trials, func(ctx context.Context, c int) (faas.LaunchResult, error) {
		w, lang := ws[c/nLangs], languages[c%nLangs]
		lr, err := pair.Execute(ctx, faas.Function{Name: w + "-" + lang, Language: lang, Workload: w}, scales[c/nLangs])
		if err != nil {
			err = fmt.Errorf("bench faas %s/%s: %w", w, lang, err)
		}
		return lr, err
	}, func(c, trial int) tee.Key {
		return tee.NewKey(ws[c/nLangs]).Name(languages[c%nLangs]).Num(uint64(scales[c/nLangs])).Num(uint64(trial))
	})
	if err != nil {
		return FaaSResult{}, err
	}
	secure, normal := p.Ms()
	res := FaaSResult{Kind: pair.Secure.Platform(), Workloads: ws, Languages: languages, Cells: make([][]Cell, len(ws))}
	for i, w := range ws {
		res.Cells[i] = make([]Cell, len(languages))
		for j, lang := range languages {
			lo := (i*nLangs + j) * trials
			s, n := secure[lo:lo+trials:lo+trials], normal[lo:lo+trials:lo+trials]
			res.Cells[i][j] = Cell{Workload: w, Language: lang, Ratio: stats.Ratio(sum(s), sum(n)), SecureMs: s, NormalMs: n}
		}
	}
	return res, nil
}

// sum adds xs left to right.
func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// BoxPlotsFor computes the Fig. 8 box-and-whisker summaries for one
// language column: per workload, one box for the secure and one for
// the normal samples.
func (r FaaSResult) BoxPlotsFor(language string) (map[string]SecureNormalBox, error) {
	j := slices.Index(r.Languages, language)
	if j < 0 {
		return nil, fmt.Errorf("bench: language %q not in result", language)
	}
	out := make(map[string]SecureNormalBox, len(r.Workloads))
	for i, w := range r.Workloads {
		c := r.Cells[i][j]
		sb, err := stats.Box(c.SecureMs)
		if err != nil {
			return nil, err
		}
		nb, err := stats.Box(c.NormalMs)
		if err != nil {
			return nil, err
		}
		out[w] = SecureNormalBox{Secure: sb, Normal: nb}
	}
	return out, nil
}

// SecureNormalBox pairs the two box plots of one Fig. 8 entry.
type SecureNormalBox struct {
	Secure stats.BoxPlot `json:"secure"`
	Normal stats.BoxPlot `json:"normal"`
}
