package ycsb

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Trace record/replay: a workload can be captured to a plain-text stream
// and replayed later, byte-for-byte reproducible — useful for sharing a
// workload between engines, debugging a specific interleaving, or
// standing in for proprietary production traces (the Nutanix workload of
// §7.5 is only known by its op mix; a captured trace pins it down).
//
// Format: one op per line.
//
//	insert user000000000042
//	update user000000000007
//	read   user000000000099
//	scan   user000000000013 27

// WriteTrace appends op to w in trace format.
func WriteTrace(w io.Writer, op Op) error {
	var err error
	if op.Kind == OpScan {
		_, err = fmt.Fprintf(w, "%s %s %d\n", op.Kind, op.Key, op.ScanLen)
	} else {
		_, err = fmt.Fprintf(w, "%s %s\n", op.Kind, op.Key)
	}
	return err
}

// Capture drains n ops from gen into w and returns them.
func Capture(w io.Writer, gen *Generator, n int) ([]Op, error) {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		op := gen.Next()
		op.Key = append([]byte(nil), op.Key...)
		if err := WriteTrace(w, op); err != nil {
			return ops, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// ReadTrace parses a full trace stream.
func ReadTrace(r io.Reader) ([]Op, error) {
	var ops []Op
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("ycsb: trace line %d: %q", line, text)
		}
		var kind OpKind
		switch fields[0] {
		case "insert":
			kind = OpInsert
		case "read":
			kind = OpRead
		case "update":
			kind = OpUpdate
		case "scan":
			kind = OpScan
		default:
			return nil, fmt.Errorf("ycsb: trace line %d: unknown op %q", line, fields[0])
		}
		op := Op{Kind: kind, Key: []byte(fields[1])}
		if kind == OpScan {
			if len(fields) != 3 {
				return nil, fmt.Errorf("ycsb: trace line %d: scan needs a length", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("ycsb: trace line %d: bad scan length %q", line, fields[2])
			}
			op.ScanLen = n
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

// Replayer yields a recorded op stream, Generator-style.
type Replayer struct {
	ops []Op
	pos int
}

// NewReplayer wraps a parsed trace.
func NewReplayer(ops []Op) *Replayer { return &Replayer{ops: ops} }

// Len returns the total trace length.
func (r *Replayer) Len() int { return len(r.ops) }

// Next returns the next op and whether one remained.
func (r *Replayer) Next() (Op, bool) {
	if r.pos >= len(r.ops) {
		return Op{}, false
	}
	op := r.ops[r.pos]
	r.pos++
	return op, true
}
