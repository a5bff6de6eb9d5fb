package minidb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"confbench/internal/meter"
)

// Engine errors.
var (
	ErrNoTable       = errors.New("minidb: no such table")
	ErrTableExists   = errors.New("minidb: table already exists")
	ErrNoColumn      = errors.New("minidb: no such column")
	ErrNoTransaction = errors.New("minidb: no transaction in progress")
	ErrInTransaction = errors.New("minidb: transaction already in progress")
	ErrArity         = errors.New("minidb: value count mismatch")
)

// ResultSet is the outcome of one statement.
type ResultSet struct {
	// Cols names the projected columns (SELECT only).
	Cols []string
	// Rows holds the projected rows (SELECT only).
	Rows []Row
	// Affected counts modified rows (INSERT/UPDATE/DELETE).
	Affected int
}

// Database is one in-process database instance.
type Database struct {
	tables map[string]*table
	inTxn  bool
	undo   []undoEntry
	// backend is the storage plane behind commit points; nil means the
	// pure in-memory pager, with zero change-buffering overhead.
	backend Backend
	// pending buffers keyed mutations between commit points when a
	// backend is mounted.
	pending []Change
	// suppress disables change recording while rollback's undo
	// application and recovery's heap rebuild replay row operations
	// that must not reach the backend.
	suppress bool
}

// New creates an empty database.
func New() *Database {
	return &Database{tables: make(map[string]*table, 8)}
}

// NewWithBackend creates a database mounted on the given storage
// backend, replaying any state the backend already persists (a durable
// backend reopened after a crash or restart recovers every committed
// row). A nil backend is equivalent to New.
func NewWithBackend(b Backend) (*Database, error) {
	db := New()
	if b == nil {
		return db, nil
	}
	db.backend = b
	if err := db.recover(); err != nil {
		return nil, err
	}
	return db, nil
}

// recover rebuilds the heap from the backend's persisted state:
// schemas first, then rows (Load yields them in (table, rowid) order),
// then secondary indexes. The replay meters nothing — recovery work is
// priced by the caller as real open-time I/O, not workload activity —
// and records nothing back to the backend.
func (db *Database) recover() (err error) {
	db.suppress = true
	defer func() { db.suppress = false }()
	throwaway := meter.NewContext()
	type rowRec struct {
		table string
		rowid int64
		row   Row
	}
	type idxRec struct{ table, col, name string }
	var rows []rowRec
	var idxs []idxRec
	err = db.backend.Load(func(key string, val []byte) error {
		switch {
		case strings.HasPrefix(key, keyPrefixSchema):
			name := key[len(keyPrefixSchema):]
			cols, err := decodeSchema(val)
			if err != nil {
				return err
			}
			db.tables[name] = newTable(name, cols)
		case strings.HasPrefix(key, keyPrefixRow):
			// The rowid is a fixed-width 8-byte big-endian suffix (it
			// may itself contain zero bytes), preceded by a separator.
			rest := key[len(keyPrefixRow):]
			if len(rest) < 10 || rest[len(rest)-9] != 0 {
				return fmt.Errorf("minidb: malformed row key %q", key)
			}
			rowid := int64(binary.BigEndian.Uint64([]byte(rest[len(rest)-8:])))
			row, err := decodeRow(val)
			if err != nil {
				return err
			}
			rows = append(rows, rowRec{table: rest[:len(rest)-9], rowid: rowid, row: row})
		case strings.HasPrefix(key, keyPrefixIndex):
			rest := key[len(keyPrefixIndex):]
			sep := strings.IndexByte(rest, 0)
			if sep < 0 {
				return fmt.Errorf("minidb: malformed index key %q", key)
			}
			idxs = append(idxs, idxRec{table: rest[:sep], col: rest[sep+1:], name: string(val)})
		default:
			return fmt.Errorf("minidb: unknown key prefix in %q", key)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		t, ok := db.tables[r.table]
		if !ok {
			return fmt.Errorf("%w: row for unrecovered table %q", ErrNoTable, r.table)
		}
		t.insertWithRowid(throwaway, r.rowid, r.row)
	}
	for _, ix := range idxs {
		t, ok := db.tables[ix.table]
		if !ok {
			return fmt.Errorf("%w: index for unrecovered table %q", ErrNoTable, ix.table)
		}
		if err := t.addIndex(throwaway, ix.name, ix.col); err != nil {
			return err
		}
	}
	// The rebuild is not dirty state: it already is the durable state.
	for _, t := range db.tables {
		t.flushDirty()
		t.rec = db.record
	}
	return nil
}

// record buffers one keyed mutation for the next commit point.
func (db *Database) record(c Change) {
	if db.suppress || db.backend == nil {
		return
	}
	db.pending = append(db.pending, c)
}

// RowCount returns the number of live rows in a table.
func (db *Database) RowCount(name string) (int, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t.live, nil
}

// Exec parses and executes one statement, metering into m.
func (db *Database) Exec(m *meter.Context, sql string) (*ResultSet, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(m, stmt)
}

// execPrepared binds args to p's placeholders in order and executes
// it. The statement is priced exactly as Exec of the same text with
// the values inlined: only the unpriced lexing and parsing is skipped.
func (db *Database) execPrepared(m *meter.Context, p *prepared, args ...Value) (*ResultSet, error) {
	if len(args) != len(p.params) {
		return nil, fmt.Errorf("%w: %d values for %d parameters", ErrArity, len(args), len(p.params))
	}
	for i, v := range args {
		p.params[i].V = v
	}
	return db.ExecStmt(m, p.stmt)
}

// flushDirty hands all buffered table writes to the backend as one
// commit point. Without a backend this is the page-cache flush /
// journal fsync of the in-memory pager: one batched device write of
// the logical dirty volume. A durable backend instead appends the
// buffered Changes to its log and fsyncs, charging real write
// amplification.
func (db *Database) flushDirty(m *meter.Context) error {
	var total int64
	for _, t := range db.tables {
		total += t.flushDirty()
	}
	if db.backend == nil {
		if total > 0 {
			m.WriteIO(total)
		}
		return nil
	}
	changes := db.pending
	db.pending = nil
	if len(changes) == 0 && total == 0 {
		return nil
	}
	return db.backend.Apply(m, changes, total)
}

// ExecStmt executes a pre-parsed statement.
func (db *Database) ExecStmt(m *meter.Context, stmt Stmt) (rs *ResultSet, err error) {
	m.CPU(60) // parse/plan overhead proxy
	defer func() {
		// Autocommit: outside a transaction every statement is its
		// own commit point. A backend flush failure fails the
		// statement — the durable log refused the commit.
		if !db.inTxn {
			if ferr := db.flushDirty(m); ferr != nil && err == nil {
				rs, err = nil, ferr
			}
		}
	}()
	switch s := stmt.(type) {
	case *CreateTableStmt:
		return db.createTable(m, s)
	case *CreateIndexStmt:
		return db.createIndex(m, s)
	case *InsertStmt:
		return db.insert(m, s)
	case *SelectStmt:
		return db.selectRows(m, s)
	case *UpdateStmt:
		return db.update(m, s)
	case *DeleteStmt:
		return db.deleteRows(m, s)
	case *DropTableStmt:
		return db.dropTable(m, s)
	case *BeginStmt:
		if db.inTxn {
			return nil, ErrInTransaction
		}
		db.inTxn = true
		db.undo = db.undo[:0]
		m.Syscall(1)
		return &ResultSet{}, nil
	case *CommitStmt:
		if !db.inTxn {
			return nil, ErrNoTransaction
		}
		db.inTxn = false
		db.undo = db.undo[:0]
		if err := db.flushDirty(m); err != nil {
			return nil, err
		}
		m.Syscall(2) // journal fsync pair
		return &ResultSet{}, nil
	case *RollbackStmt:
		if !db.inTxn {
			return nil, ErrNoTransaction
		}
		db.rollback(m)
		return &ResultSet{}, nil
	case *VacuumStmt:
		return db.vacuum(m)
	default:
		return nil, fmt.Errorf("minidb: unhandled statement %T", stmt)
	}
}

func (db *Database) logUndo(e undoEntry) {
	if db.inTxn {
		db.undo = append(db.undo, e)
	}
}

func (db *Database) rollback(m *meter.Context) {
	// Undo application restores the pre-transaction heap — a state the
	// backend already holds — so none of it is recorded, and the
	// aborted transaction's buffered row changes are discarded. DDL
	// changes survive: the undo log does not undo DDL, so the durable
	// state must keep pace with the in-memory catalog.
	db.suppress = true
	defer func() {
		db.suppress = false
		kept := db.pending[:0]
		for _, c := range db.pending {
			if c.DDL {
				kept = append(kept, c)
			}
		}
		db.pending = kept
	}()
	for i := len(db.undo) - 1; i >= 0; i-- {
		e := db.undo[i]
		t, ok := db.tables[e.table]
		if !ok {
			continue // table dropped after the op; nothing to restore into
		}
		switch e.kind {
		case undoInsert:
			t.delete(m, e.rowid)
		case undoDelete:
			t.insertWithRowid(m, e.rowid, e.oldRow)
		case undoUpdate:
			t.update(m, e.rowid, e.oldRow)
		}
	}
	db.undo = db.undo[:0]
	db.inTxn = false
}

func (db *Database) table(name string) (*table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

func (db *Database) createTable(m *meter.Context, s *CreateTableStmt) (*ResultSet, error) {
	if _, ok := db.tables[s.Table]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, s.Table)
	}
	t := newTable(s.Table, s.Cols)
	if db.backend != nil {
		t.rec = db.record
	}
	db.tables[s.Table] = t
	db.record(Change{Key: schemaKey(s.Table), Val: encodeSchema(s.Cols), DDL: true})
	m.Touch(PageSize) // catalog page, flushed with the next commit
	m.Syscall(1)
	return &ResultSet{}, nil
}

func (db *Database) createIndex(m *meter.Context, s *CreateIndexStmt) (*ResultSet, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	if err := t.addIndex(m, s.Name, s.Col); err != nil {
		return nil, err
	}
	db.record(Change{Key: indexKey(s.Table, s.Col), Val: []byte(s.Name), DDL: true})
	m.Touch(PageSize)
	m.Syscall(1)
	return &ResultSet{}, nil
}

func (db *Database) dropTable(m *meter.Context, s *DropTableStmt) (*ResultSet, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	if db.backend != nil {
		// Tombstone everything the table persisted: schema, index
		// definitions, and every live row.
		db.record(Change{Key: schemaKey(s.Table), Delete: true, DDL: true})
		for col := range t.indexes {
			db.record(Change{Key: indexKey(s.Table, col), Delete: true, DDL: true})
		}
		for rowid := range t.locs {
			db.record(Change{Key: rowKey(s.Table, rowid), Delete: true, DDL: true})
		}
	}
	delete(db.tables, s.Table)
	m.Touch(PageSize)
	m.Syscall(1)
	return &ResultSet{}, nil
}

func (db *Database) insert(m *meter.Context, s *InsertStmt) (*ResultSet, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	if len(s.Values) != len(t.cols) {
		return nil, fmt.Errorf("%w: %d values for %d columns", ErrArity, len(s.Values), len(t.cols))
	}
	row := make(Row, len(t.cols))
	for i, v := range s.Values {
		if row[i], err = evalExpr(m, t, nil, v); err != nil {
			return nil, err
		}
	}
	rowid := t.insert(m, row)
	db.logUndo(undoEntry{kind: undoInsert, table: t.name, rowid: rowid})
	return &ResultSet{Affected: 1}, nil
}

// matchRows applies WHERE over the table, using an index range when
// the predicate allows it, and calls fn for every matching row.
func (db *Database) matchRows(m *meter.Context, t *table, where Expr, fn func(rowid int64, r Row) error) error {
	if rng, idx := indexPlan(t, where); idx != nil {
		var innerErr error
		steps := idx.tree.Range(rng.lo, rng.hi, func(_ Value, rowid int64) bool {
			row, ok := t.get(rowid)
			if !ok {
				return true // stale index entry
			}
			m.CPU(30)
			if err := fn(rowid, row); err != nil {
				innerErr = err
				return false
			}
			return true
		})
		m.Touch(int64(steps+1) * 64) // hot B-tree node traffic
		return innerErr
	}
	return t.scan(m, func(rowid int64, r Row) (bool, error) {
		if where != nil {
			v, err := evalExpr(m, t, r, where)
			if err != nil {
				return false, err
			}
			if !truthy(v) {
				return true, nil
			}
		}
		return true, fn(rowid, r)
	})
}

// keyRange is an inclusive index scan range.
type keyRange struct{ lo, hi Value }

// indexPlan recognizes `col = literal` and `col BETWEEN lo AND hi` on
// literals over an indexed column, returning the scan range and the
// index. A nil index means full scan.
func indexPlan(t *table, where Expr) (keyRange, *index) {
	switch e := where.(type) {
	case *Binary:
		if lit, ok := e.R.(*Literal); ok && e.Op == "=" {
			if idx := indexedCol(t, e.L); idx != nil {
				return keyRange{lo: lit.V, hi: lit.V}, idx
			}
		}
	case *Between:
		lo, okLo := e.Lo.(*Literal)
		hi, okHi := e.Hi.(*Literal)
		if okLo && okHi {
			if idx := indexedCol(t, e.E); idx != nil {
				return keyRange{lo: lo.V, hi: hi.V}, idx
			}
		}
	}
	return keyRange{}, nil
}

// indexedCol returns the index on the column e names, or nil when e is
// no column or its column has no index.
func indexedCol(t *table, e Expr) *index {
	c, ok := e.(*ColRef)
	if !ok {
		return nil
	}
	ord, ok := t.colIdx[c.Name]
	if !ok {
		return nil
	}
	return t.indexOn(ord)
}

func (db *Database) selectRows(m *meter.Context, s *SelectStmt) (*ResultSet, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	if err := checkSelectCols(t, s); err != nil {
		return nil, err
	}
	hasAgg := false
	for _, se := range s.Exprs {
		if se.Agg != "" {
			hasAgg = true
		}
	}
	if s.GroupBy != "" {
		if _, ok := t.colIdx[s.GroupBy]; !ok {
			return nil, fmt.Errorf("%w: GROUP BY %q", ErrNoColumn, s.GroupBy)
		}
		return db.selectGrouped(m, t, s)
	}
	if hasAgg {
		return db.selectAggregate(m, t, s)
	}

	cols := make([]string, len(s.Exprs))
	for i, se := range s.Exprs {
		cols[i] = se.Col.Name
	}

	type sortedRow struct {
		key Value
		row Row
	}
	var out []sortedRow
	orderOrd := -1
	if s.OrderBy != "" {
		ord, ok := t.colIdx[s.OrderBy]
		if !ok {
			return nil, fmt.Errorf("%w: ORDER BY %q", ErrNoColumn, s.OrderBy)
		}
		orderOrd = ord
	}
	err = db.matchRows(m, t, s.Where, func(_ int64, r Row) error {
		proj := make(Row, len(cols))
		for i, se := range s.Exprs {
			v, err := evalExpr(m, t, r, se.Col)
			if err != nil {
				return err
			}
			proj[i] = v
		}
		var key Value
		if orderOrd >= 0 {
			key = r[orderOrd]
		}
		out = append(out, sortedRow{key: key, row: proj})
		// Unsorted queries can stop at LIMIT.
		if s.Limit >= 0 && orderOrd < 0 && len(out) >= s.Limit {
			return errStopScan
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopScan) {
		return nil, err
	}
	if orderOrd >= 0 {
		m.CPU(int64(len(out)) * 24)
		sort.SliceStable(out, func(i, j int) bool {
			c := Compare(out[i].key, out[j].key)
			if s.Desc {
				return c > 0
			}
			return c < 0
		})
	}
	if s.Limit >= 0 && len(out) > s.Limit {
		out = out[:s.Limit]
	}
	rs := &ResultSet{Cols: cols, Rows: make([]Row, len(out))}
	for i, sr := range out {
		rs.Rows[i] = sr.row
	}
	m.Alloc(int64(len(out)) * 48)
	return rs, nil
}

// errStopScan terminates a scan early (LIMIT satisfied).
var errStopScan = errors.New("minidb: stop scan")

// checkExprCols validates every column reference in e against t, so
// unknown columns fail even when no row is ever evaluated.
func checkExprCols(t *table, e Expr) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *Literal:
		return nil
	case *ColRef:
		if _, ok := t.colIdx[x.Name]; !ok {
			return fmt.Errorf("%w: %q in %q", ErrNoColumn, x.Name, t.name)
		}
		return nil
	case *Binary:
		if err := checkExprCols(t, x.L); err != nil {
			return err
		}
		return checkExprCols(t, x.R)
	case *Between:
		for _, sub := range []Expr{x.E, x.Lo, x.Hi} {
			if err := checkExprCols(t, sub); err != nil {
				return err
			}
		}
		return nil
	case *Like:
		if err := checkExprCols(t, x.E); err != nil {
			return err
		}
		return checkExprCols(t, x.Pattern)
	default:
		return fmt.Errorf("minidb: unhandled expression %T", e)
	}
}

// checkSelectCols validates a select statement's expressions upfront.
func checkSelectCols(t *table, s *SelectStmt) error {
	for _, se := range s.Exprs {
		if se.Col == nil {
			continue // COUNT(*)
		}
		if err := checkExprCols(t, se.Col); err != nil {
			return err
		}
	}
	return checkExprCols(t, s.Where)
}

// selectAggregate executes a SELECT of aggregates only, without GROUP
// BY: the match set is one group.
func (db *Database) selectAggregate(m *meter.Context, t *table, s *SelectStmt) (*ResultSet, error) {
	states := make([]groupState, len(s.Exprs))
	err := db.matchRows(m, t, s.Where, func(_ int64, r Row) error {
		return accumulate(m, t, r, s.Exprs, states)
	})
	if err != nil {
		return nil, err
	}
	row := make(Row, len(s.Exprs))
	cols := make([]string, len(s.Exprs))
	for i, se := range s.Exprs {
		cols[i] = strings.ToLower(se.Agg)
		if row[i], err = states[i].result(se.Agg); err != nil {
			return nil, err
		}
	}
	return &ResultSet{Cols: cols, Rows: []Row{row}}, nil
}

func (db *Database) update(m *meter.Context, s *UpdateStmt) (*ResultSet, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	ords := make([]int, len(s.Sets))
	for i, set := range s.Sets {
		ord, ok := t.colIdx[set.Col]
		if !ok {
			return nil, fmt.Errorf("%w: %q in %q", ErrNoColumn, set.Col, s.Table)
		}
		if err := checkExprCols(t, set.Expr); err != nil {
			return nil, err
		}
		ords[i] = ord
	}
	if err := checkExprCols(t, s.Where); err != nil {
		return nil, err
	}
	// Collect matches first so index-maintained updates don't perturb
	// the scan in flight.
	type match struct {
		rowid int64
		row   Row
	}
	var matches []match
	err = db.matchRows(m, t, s.Where, func(rowid int64, r Row) error {
		matches = append(matches, match{rowid: rowid, row: r.Clone()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, mt := range matches {
		newRow := mt.row.Clone()
		for i, set := range s.Sets {
			v, err := evalExpr(m, t, mt.row, set.Expr)
			if err != nil {
				return nil, err
			}
			newRow[ords[i]] = v
		}
		if old, ok := t.update(m, mt.rowid, newRow); ok {
			db.logUndo(undoEntry{kind: undoUpdate, table: t.name, rowid: mt.rowid, oldRow: old.Clone()})
		}
	}
	return &ResultSet{Affected: len(matches)}, nil
}

func (db *Database) deleteRows(m *meter.Context, s *DeleteStmt) (*ResultSet, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	if err := checkExprCols(t, s.Where); err != nil {
		return nil, err
	}
	var rowids []int64
	err = db.matchRows(m, t, s.Where, func(rowid int64, _ Row) error {
		rowids = append(rowids, rowid)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rowid := range rowids {
		if old, ok := t.delete(m, rowid); ok {
			db.logUndo(undoEntry{kind: undoDelete, table: t.name, rowid: rowid, oldRow: old.Clone()})
		}
	}
	return &ResultSet{Affected: len(rowids)}, nil
}

// truthy reports whether a predicate's value holds: a WHERE clause
// yields 1, 0 or NULL.
func truthy(v Value) bool { return v.Type == TypeInt && v.Int != 0 }

// evalExpr evaluates e against row r of table t (r is nil for the
// literals of an INSERT).
func evalExpr(m *meter.Context, t *table, r Row, e Expr) (Value, error) {
	m.CPU(4)
	switch x := e.(type) {
	case *Literal:
		return x.V, nil
	case *ColRef:
		ord, ok := t.colIdx[x.Name]
		if !ok {
			return Value{}, fmt.Errorf("%w: %q in %q", ErrNoColumn, x.Name, t.name)
		}
		return r[ord], nil
	case *Binary:
		return evalBinary(m, t, r, x)
	case *Between:
		v, err := evalExpr(m, t, r, x.E)
		if err != nil {
			return Value{}, err
		}
		lo, err := evalExpr(m, t, r, x.Lo)
		if err != nil {
			return Value{}, err
		}
		hi, err := evalExpr(m, t, r, x.Hi)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null(), nil
		}
		return boolVal(Compare(v, lo) >= 0 && Compare(v, hi) <= 0), nil
	case *Like:
		v, err := evalExpr(m, t, r, x.E)
		if err != nil {
			return Value{}, err
		}
		p, err := evalExpr(m, t, r, x.Pattern)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() || p.IsNull() {
			return Null(), nil
		}
		m.CPU(int64(len(v.Str) + len(p.Str)))
		return boolVal(likeMatch(v.Str, p.Str)), nil
	default:
		return Value{}, fmt.Errorf("minidb: unhandled expression %T", e)
	}
}

func evalBinary(m *meter.Context, t *table, r Row, x *Binary) (Value, error) {
	l, err := evalExpr(m, t, r, x.L)
	if err != nil {
		return Value{}, err
	}
	rv, err := evalExpr(m, t, r, x.R)
	if err != nil {
		return Value{}, err
	}
	switch {
	case l.IsNull() || rv.IsNull():
		return Null(), nil
	case x.Op == "=":
		return boolVal(Compare(l, rv) == 0), nil
	case x.Op != "+":
		return Value{}, fmt.Errorf("minidb: unhandled operator %q", x.Op)
	case l.Type == TypeText || rv.Type == TypeText:
		// + concatenates when either side is text.
		return Text(l.Str + rv.Str), nil
	case l.Type == TypeInt && rv.Type == TypeInt:
		return Int(l.Int + rv.Int), nil
	default:
		return Real(l.AsReal() + rv.AsReal()), nil
	}
}

func boolVal(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any char),
// case-insensitive as in SQLite.
func likeMatch(s, pattern string) bool {
	s = strings.ToLower(s)
	pattern = strings.ToLower(pattern)
	var match func(si, pi int) bool
	match = func(si, pi int) bool {
		for pi < len(pattern) {
			switch pattern[pi] {
			case '%':
				for k := si; k <= len(s); k++ {
					if match(k, pi+1) {
						return true
					}
				}
				return false
			case '_':
				if si >= len(s) {
					return false
				}
				si++
				pi++
			default:
				if si >= len(s) || s[si] != pattern[pi] {
					return false
				}
				si++
				pi++
			}
		}
		return si == len(s)
	}
	return match(0, 0)
}
