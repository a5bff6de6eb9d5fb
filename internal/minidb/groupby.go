package minidb

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"confbench/internal/meter"
)

// groupState accumulates one aggregate over one group (without GROUP
// BY, over the whole match set).
type groupState struct {
	count int64
	sum   float64
	min   Value
	max   Value
	seen  bool
}

func (st *groupState) add(v Value) {
	if v.IsNull() {
		return
	}
	st.count++
	st.sum += v.AsReal()
	if !st.seen || Compare(v, st.min) < 0 {
		st.min = v
	}
	if !st.seen || Compare(v, st.max) > 0 {
		st.max = v
	}
	st.seen = true
}

// accumulate adds row r to states, one per projection of exprs; a
// plain column projection has no state.
func accumulate(m *meter.Context, t *table, r Row, exprs []SelectExpr, states []groupState) error {
	for i, se := range exprs {
		switch {
		case se.Agg == "":
		case se.Col == nil: // COUNT(*)
			states[i].count++
		default:
			v, err := evalExpr(m, t, r, se.Col)
			if err != nil {
				return err
			}
			states[i].add(v)
		}
	}
	return nil
}

func (st *groupState) result(agg string) (Value, error) {
	switch agg {
	case "COUNT":
		return Int(st.count), nil
	case "SUM":
		if st.count == 0 {
			return Null(), nil
		}
		if st.sum == math.Trunc(st.sum) {
			return Int(int64(st.sum)), nil
		}
		return Real(st.sum), nil
	case "AVG":
		if st.count == 0 {
			return Null(), nil
		}
		return Real(st.sum / float64(st.count)), nil
	case "MIN":
		if !st.seen {
			return Null(), nil
		}
		return st.min, nil
	case "MAX":
		if !st.seen {
			return Null(), nil
		}
		return st.max, nil
	default:
		return Value{}, fmt.Errorf("minidb: unsupported aggregate %q", agg)
	}
}

// selectGrouped executes SELECT ... GROUP BY col. Projections may be
// the group column itself or aggregates; output rows come in group-key
// order (stable and index-friendly, as SQLite produces for grouped
// scans).
func (db *Database) selectGrouped(m *meter.Context, t *table, s *SelectStmt) (*ResultSet, error) {
	groupOrd := t.colIdx[s.GroupBy]

	// Validate projections: group column or aggregate only.
	for _, se := range s.Exprs {
		if se.Agg == "" && se.Col.Name != s.GroupBy {
			return nil, fmt.Errorf("minidb: non-aggregate projection must be the GROUP BY column %q", s.GroupBy)
		}
	}
	if s.OrderBy != "" && s.OrderBy != s.GroupBy {
		return nil, fmt.Errorf("minidb: ORDER BY %q with GROUP BY %q is not supported", s.OrderBy, s.GroupBy)
	}

	type group struct {
		key    Value
		states []groupState
	}
	groups := make(map[string]*group, 16)
	err := db.matchRows(m, t, s.Where, func(_ int64, r Row) error {
		key := r[groupOrd]
		mapKey := key.String()
		g, ok := groups[mapKey]
		if !ok {
			g = &group{key: key, states: make([]groupState, len(s.Exprs))}
			groups[mapKey] = g
		}
		if err := accumulate(m, t, r, s.Exprs, g.states); err != nil {
			return err
		}
		m.CPU(int64(len(s.Exprs)) * 6)
		return nil
	})
	if err != nil {
		return nil, err
	}

	ordered := make([]*group, 0, len(groups))
	for _, g := range groups {
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(i, j int) bool {
		c := Compare(ordered[i].key, ordered[j].key)
		if s.Desc {
			return c > 0
		}
		return c < 0
	})
	m.CPU(int64(len(ordered)) * 24)

	cols := make([]string, len(s.Exprs))
	for i, se := range s.Exprs {
		if se.Agg != "" {
			cols[i] = strings.ToLower(se.Agg)
		} else {
			cols[i] = s.GroupBy
		}
	}
	rs := &ResultSet{Cols: cols}
	for _, g := range ordered {
		row := make(Row, len(s.Exprs))
		for i, se := range s.Exprs {
			if se.Agg == "" {
				row[i] = g.key
				continue
			}
			v, err := g.states[i].result(se.Agg)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		rs.Rows = append(rs.Rows, row)
		if s.Limit >= 0 && len(rs.Rows) >= s.Limit {
			break
		}
	}
	m.Alloc(int64(len(rs.Rows)) * 48)
	return rs, nil
}
