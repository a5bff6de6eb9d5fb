// Package minidb is ConfBench's embedded relational database
// substrate, standing in for the SQLite amalgamation the paper stress-
// tests with speedtest1 (§IV-C, "Confidential DBMS").
//
// It implements a compact but real SQL engine: a lexer and recursive-
// descent parser for exactly the SQL its speedtest executes (the
// grammar is in parser.go: CREATE TABLE/INDEX, single-row INSERT,
// SELECT of columns and aggregates with a WHERE of =, BETWEEN or LIKE,
// GROUP BY, ORDER BY [DESC] and LIMIT, UPDATE, DELETE, DROP TABLE,
// BEGIN/COMMIT/ROLLBACK and VACUUM; + adds integers or concatenates
// text), page-based heap storage behind a metering pager, B-tree
// secondary indexes, and transaction rollback via a page undo log. The
// speedtest file reproduces the numbered-test structure of SQLite's
// speedtest1.c.
package minidb

import (
	"fmt"
	"strconv"
	"strings"
)

// Type is a column/value type.
type Type int

// Supported types.
const (
	TypeNull Type = iota
	TypeInt
	TypeReal
	TypeText
)

// String names the type in DDL spelling.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INTEGER"
	case TypeReal:
		return "REAL"
	case TypeText:
		return "TEXT"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Value is a dynamically typed SQL value.
type Value struct {
	Type Type
	Int  int64
	Real float64
	Str  string
}

// Null, integer, real, and text constructors.
func Null() Value          { return Value{Type: TypeNull} }
func Int(v int64) Value    { return Value{Type: TypeInt, Int: v} }
func Real(v float64) Value { return Value{Type: TypeReal, Real: v} }
func Text(s string) Value  { return Value{Type: TypeText, Str: s} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Type == TypeNull }

// AsReal coerces numeric values to float64.
func (v Value) AsReal() float64 {
	switch v.Type {
	case TypeInt:
		return float64(v.Int)
	case TypeReal:
		return v.Real
	default:
		return 0
	}
}

// String renders the value in SQL literal form.
func (v Value) String() string {
	switch v.Type {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.Int, 10)
	case TypeReal:
		return strconv.FormatFloat(v.Real, 'g', -1, 64)
	case TypeText:
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	default:
		return "?"
	}
}

// Compare orders two values SQLite-style: NULL < numbers < text.
// Numeric comparison coerces int/real.
func Compare(a, b Value) int {
	rank := func(t Type) int {
		switch t {
		case TypeNull:
			return 0
		case TypeInt, TypeReal:
			return 1
		default:
			return 2
		}
	}
	ra, rb := rank(a.Type), rank(b.Type)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0:
		return 0
	case 1:
		av, bv := a.AsReal(), b.AsReal()
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		default:
			return 0
		}
	default:
		return strings.Compare(a.Str, b.Str)
	}
}

// Equal reports value equality under Compare semantics (NULL equals
// nothing, not even NULL — callers handle IS NULL separately).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// Row is one table row.
type Row []Value

// Clone copies the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
