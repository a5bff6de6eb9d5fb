package door

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/obs"
	"confbench/internal/slo"
)

// The ops-plane read side. Every door has a registry (Obs); the
// federating doors mount the rest through their Plane.

// DefaultObsWindow is the sample window (scrape count) rate queries
// default to.
const DefaultObsWindow = 60

// wantJSON is the one content negotiation of the surface: JSON when
// asked via ?format=json or an Accept header naming it, else text.
func wantJSON(r *http.Request) bool {
	return r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
}

// promText is the Prometheus text exposition content type.
const promText = "text/plain; version=0.0.4; charset=utf-8"

// queryCount parses an optional non-negative integer query parameter.
func queryCount(r *http.Request, name string, def int, layer cberr.Layer) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, cberr.New(cberr.CodeInvalid, layer, name+" must be a non-negative integer")
	}
	return n, nil
}

// Obs serves reg's snapshot at path (the gateway/tier and guest
// spellings differ): as JSON when negotiated and as the obs frame the
// federation scrape uses on the binary carrier, else as Prometheus text.
func Obs(path string, reg *obs.Registry) Handler {
	h := Get(path, func(context.Context) (obs.Snapshot, error) { return reg.Snapshot(), nil })
	asJSON := h.http
	h.http = func(w http.ResponseWriter, r *http.Request, layer cberr.Layer) error {
		if wantJSON(r) {
			return asJSON(w, r, layer)
		}
		w.Header().Set("Content-Type", promText)
		_ = reg.WritePrometheus(w) // a failed write means the scraper went away
		return nil
	}
	return h
}

// routes is the ops surface every federating door mounts, the same
// on the gateway and the front tier.
func (p *Plane) routes() []Handler {
	return []Handler{
		Get(api.PathV1Metrics, p.metrics),
		Get(api.PathV1Health, func(context.Context) (api.Health, error) {
			return api.Health{Status: "ok"}, nil
		}),
		Obs(api.PathV1Obs, p.reg),
		Raw(http.MethodGet, api.PathV1ObsCluster, p.obsCluster),
		Raw(http.MethodGet, api.PathV1ObsEvents, p.obsEvents),
		// A door without objectives has a nil engine, which serves the
		// empty lists.
		Get(api.PathV1ObsSLO, func(context.Context) ([]slo.Status, error) {
			return orEmpty(p.slo.Status()), nil
		}),
		Get(api.PathV1ObsAlerts, func(context.Context) ([]slo.Transition, error) {
			return orEmpty(p.slo.Timeline()), nil
		}),
	}
}

// obsCluster serves the federated cluster view: a fresh sweep merged
// under host (or shard) labels, with the windowed invoke rate from the
// scrape series; ?window=N overrides the rate window (samples).
func (p *Plane) obsCluster(w http.ResponseWriter, r *http.Request, layer cberr.Layer) error {
	window, err := queryCount(r, "window", DefaultObsWindow, layer)
	if err != nil {
		return err
	}
	cs := p.ScrapeOnce(r.Context(), time.Now())
	cs.Window = window
	if s := p.series.Get(obs.RateInvokesPerSec); s != nil {
		cs.Rates = map[string]float64{obs.RateInvokesPerSec: s.Rate(window)}
	}
	if wantJSON(r) {
		api.WriteJSON(w, http.StatusOK, cs)
		return nil
	}
	w.Header().Set("Content-Type", promText)
	_ = obs.WriteSnapshotPrometheus(w, cs.Merged)
	return nil
}

// obsEvents serves the flight recorder's retained events (oldest
// first), filtered server-side by ?limit= (newest N), ?err=1 (failures
// only), and ?trace=inv-N (exact trace match).
func (p *Plane) obsEvents(w http.ResponseWriter, r *http.Request, layer cberr.Layer) error {
	limit, err := queryCount(r, "limit", 0, layer)
	if err != nil {
		return err
	}
	q := r.URL.Query()
	evs := p.recorder.Filter(obs.EventFilter{Trace: q.Get("trace"), ErrOnly: q.Get("err") == "1", Limit: limit})
	api.WriteJSON(w, http.StatusOK, orEmpty(evs))
	return nil
}

// orEmpty keeps an empty list rendering as [] rather than null.
func orEmpty[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}
