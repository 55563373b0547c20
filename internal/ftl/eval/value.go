// Package eval implements the FTL query-processing algorithm of the
// paper's appendix for the MOST model: for every subformula g it computes a
// relation Rg whose tuples pair an instantiation of g's free variables with
// the time intervals during which g is satisfied, building bottom-up from
// atomic predicates solved in closed form over the objects' motion
// functions.  A brute-force reference evaluator implementing the §3.3
// semantics literally is included as a correctness oracle.
package eval

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/mostdb/most/internal/most"
)

// ValKind discriminates evaluation values.
type ValKind uint8

// Value kinds.
const (
	ValNull ValKind = iota
	ValObj          // an object reference
	ValNum
	ValStr
	ValBool
)

// Val is a value an FTL variable can take: an object reference or a
// constant.  Val is comparable and usable as a map key.
type Val struct {
	Kind ValKind
	Obj  most.ObjectID
	Num  float64
	Str  string
	Bool bool
}

// ObjVal wraps an object reference.
func ObjVal(id most.ObjectID) Val { return Val{Kind: ValObj, Obj: id} }

// NumVal wraps a number.
func NumVal(f float64) Val { return Val{Kind: ValNum, Num: f} }

// StrVal wraps a string.
func StrVal(s string) Val { return Val{Kind: ValStr, Str: s} }

// BoolVal wraps a bool.
func BoolVal(b bool) Val { return Val{Kind: ValBool, Bool: b} }

// FromMost converts a static most.Value.
func FromMost(v most.Value) Val {
	switch v.Kind {
	case most.KindFloat:
		return NumVal(v.F)
	case most.KindString:
		return StrVal(v.S)
	case most.KindBool:
		return BoolVal(v.B)
	default:
		return Val{}
	}
}

// Compare orders two values; values of different kinds order by kind.
func (v Val) Compare(o Val) int {
	if v.Kind != o.Kind {
		if v.Kind < o.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case ValObj:
		return strings.Compare(string(v.Obj), string(o.Obj))
	case ValNum:
		switch {
		case v.Num < o.Num:
			return -1
		case v.Num > o.Num:
			return 1
		}
	case ValStr:
		return strings.Compare(v.Str, o.Str)
	case ValBool:
		switch {
		case !v.Bool && o.Bool:
			return -1
		case v.Bool && !o.Bool:
			return 1
		}
	}
	return 0
}

// String renders the value.
func (v Val) String() string {
	switch v.Kind {
	case ValObj:
		return string(v.Obj)
	case ValNum:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case ValStr:
		return v.Str
	case ValBool:
		return strconv.FormatBool(v.Bool)
	default:
		return "NULL"
	}
}

// encodeVals builds a map key for an instantiation.
func encodeVals(vals []Val) string {
	var buf [64]byte
	return string(AppendKey(buf[:0], vals...))
}

// AppendKey appends the Key encoding of vals to dst, so callers comparing
// many instantiations can encode into reused buffers.
func AppendKey(dst []byte, vals ...Val) []byte {
	for _, v := range vals {
		dst = append(dst, byte('0'+v.Kind))
		switch v.Kind {
		case ValObj:
			dst = append(dst, v.Obj...)
		case ValNum:
			dst = strconv.AppendFloat(dst, v.Num, 'g', -1, 64)
		case ValStr:
			dst = append(dst, v.Str...)
		case ValBool:
			dst = strconv.AppendBool(dst, v.Bool)
		}
		dst = append(dst, 0)
	}
	return dst
}

// Error wraps evaluation failures.
func errf(format string, args ...any) error {
	return fmt.Errorf("ftl/eval: "+format, args...)
}
