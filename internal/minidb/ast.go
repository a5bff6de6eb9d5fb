package minidb

// Stmt is a parsed SQL statement.
type Stmt interface{ stmt() }

// ColDef is one column definition in CREATE TABLE.
type ColDef struct {
	Name string
	Type Type
}

// CreateTableStmt is CREATE TABLE name (col type, ...).
type CreateTableStmt struct {
	Table string
	Cols  []ColDef
}

// CreateIndexStmt is CREATE INDEX name ON table(col).
type CreateIndexStmt struct {
	Name  string
	Table string
	Col   string
}

// InsertStmt is INSERT INTO table VALUES (...): one value per column,
// in column order.
type InsertStmt struct {
	Table  string
	Values []*Literal
}

// SelectExpr is one projection item: a column, or an aggregate of a
// column, or COUNT(*).
type SelectExpr struct {
	// Agg is COUNT/SUM/AVG/MIN/MAX ("" for a plain column).
	Agg string
	// Col is the projected or aggregated column (nil for COUNT(*)).
	Col *ColRef
}

// SelectStmt is SELECT exprs FROM table [WHERE e] [GROUP BY col]
// [ORDER BY col [DESC]] [LIMIT n].
type SelectStmt struct {
	Exprs   []SelectExpr
	Table   string
	Where   Expr
	GroupBy string
	OrderBy string
	Desc    bool
	// Limit is -1 when absent.
	Limit int
}

// SetClause is one col = expr assignment.
type SetClause struct {
	Col  string
	Expr Expr
}

// UpdateStmt is UPDATE table SET assignments [WHERE e].
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
}

// DeleteStmt is DELETE FROM table [WHERE e].
type DeleteStmt struct {
	Table string
	Where Expr
}

// DropTableStmt is DROP TABLE name.
type DropTableStmt struct {
	Table string
}

// BeginStmt, CommitStmt, and RollbackStmt control transactions.
type (
	BeginStmt    struct{}
	CommitStmt   struct{}
	RollbackStmt struct{}
)

// VacuumStmt is VACUUM: rewrite the heap files, dropping tombstones.
type VacuumStmt struct{}

func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*InsertStmt) stmt()      {}
func (*SelectStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*DropTableStmt) stmt()   {}
func (*BeginStmt) stmt()       {}
func (*VacuumStmt) stmt()      {}
func (*CommitStmt) stmt()      {}
func (*RollbackStmt) stmt()    {}

// Expr is a parsed expression.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct{ V Value }

// ColRef references a column by name.
type ColRef struct{ Name string }

// Binary is e = e (a comparison) or e + e (integer addition, or text
// concatenation when either side is text).
type Binary struct {
	Op   string // "=" or "+"
	L, R Expr
}

// Between is e BETWEEN lo AND hi.
type Between struct {
	E      Expr
	Lo, Hi Expr
}

// Like is e LIKE pattern (with % and _ wildcards).
type Like struct {
	E       Expr
	Pattern Expr
}

func (*Literal) expr() {}
func (*ColRef) expr()  {}
func (*Binary) expr()  {}
func (*Between) expr() {}
func (*Like) expr()    {}
