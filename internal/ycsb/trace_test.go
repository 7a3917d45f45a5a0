package ycsb

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	cfg := Config{Workload: WorkloadE, Records: 500}
	gen := NewGenerator(cfg, NewShared(cfg), 7)
	var buf bytes.Buffer
	want, err := Capture(&buf, gen, 200)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || string(got[i].Key) != string(want[i].Key) || got[i].ScanLen != want[i].ScanLen {
			t.Fatalf("op %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestTraceIgnoresCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nread user000000000001\n  \nupdate user000000000002\n"
	ops, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0].Kind != OpRead || ops[1].Kind != OpUpdate {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"fly user1\n",
		"read\n",
		"scan user1\n",
		"scan user1 zero\n",
		"scan user1 0\n",
	} {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestReplayer(t *testing.T) {
	ops := []Op{
		{Kind: OpInsert, Key: []byte("a")},
		{Kind: OpScan, Key: []byte("b"), ScanLen: 9},
	}
	r := NewReplayer(ops)
	if r.Len() != 2 {
		t.Fatalf("len %d", r.Len())
	}
	o1, ok := r.Next()
	if !ok || o1.Kind != OpInsert {
		t.Fatalf("first = %+v, %v", o1, ok)
	}
	o2, ok := r.Next()
	if !ok || o2.ScanLen != 9 {
		t.Fatalf("second = %+v", o2)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("Next past end succeeded")
	}
}

func TestCaptureDeterministic(t *testing.T) {
	mk := func() string {
		cfg := Config{Workload: WorkloadA, Records: 100}
		gen := NewGenerator(cfg, NewShared(cfg), 3)
		var buf bytes.Buffer
		Capture(&buf, gen, 100)
		return buf.String()
	}
	if mk() != mk() {
		t.Fatal("same seed produced different traces")
	}
}
