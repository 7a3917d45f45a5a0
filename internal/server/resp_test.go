package server

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func readAll(t *testing.T, input string) ([][][]byte, error) {
	t.Helper()
	r := newRespReader(strings.NewReader(input), maxFrameArgs, maxBulkBytes)
	var cmds [][][]byte
	for {
		args, err := r.ReadCommand()
		if errors.Is(err, io.EOF) {
			return cmds, nil
		}
		if err != nil {
			return cmds, err
		}
		if len(args) > 0 {
			// args live in the reader's arena and die at the next
			// ReadCommand, so retaining them here requires a deep copy.
			cp := make([][]byte, len(args))
			for i, a := range args {
				cp[i] = append([]byte(nil), a...)
			}
			cmds = append(cmds, cp)
		}
	}
}

func TestReadCommandArray(t *testing.T) {
	cmds, err := readAll(t, "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 1 {
		t.Fatalf("got %d commands, want 1", len(cmds))
	}
	want := [][]byte{[]byte("SET"), []byte("k"), []byte("hello")}
	for i, w := range want {
		if !bytes.Equal(cmds[0][i], w) {
			t.Fatalf("arg %d = %q, want %q", i, cmds[0][i], w)
		}
	}
}

func TestReadCommandInline(t *testing.T) {
	cmds, err := readAll(t, "PING\r\nGET  key1\nSET a b\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 3 {
		t.Fatalf("got %d commands, want 3", len(cmds))
	}
	if string(cmds[1][0]) != "GET" || string(cmds[1][1]) != "key1" {
		t.Fatalf("inline parse: %q", cmds[1])
	}
}

func TestReadCommandPipelined(t *testing.T) {
	input := "*2\r\n$3\r\nGET\r\n$1\r\na\r\nPING\r\n*1\r\n$6\r\nDBSIZE\r\n"
	cmds, err := readAll(t, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 3 {
		t.Fatalf("got %d commands, want 3", len(cmds))
	}
}

func TestReadCommandEmptyFramesSkipped(t *testing.T) {
	cmds, err := readAll(t, "\r\n*0\r\n   \r\nPING\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 1 || string(cmds[0][0]) != "PING" {
		t.Fatalf("got %v", cmds)
	}
}

func TestReadCommandBinaryValues(t *testing.T) {
	val := []byte{0, 1, 2, '\r', '\n', 0xff}
	var buf bytes.Buffer
	buf.WriteString("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$6\r\n")
	buf.Write(val)
	buf.WriteString("\r\n")
	cmds, err := readAll(t, buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cmds[0][2], val) {
		t.Fatalf("binary value mangled: %v", cmds[0][2])
	}
}

func TestReadCommandProtocolErrors(t *testing.T) {
	cases := map[string]string{
		"oversized multibulk": "*99999999\r\n",
		"negative multibulk":  "*-2\r\n",
		"bad multibulk len":   "*xyz\r\n",
		"oversized bulk":      "*1\r\n$99999999999\r\n",
		"negative bulk":       "*1\r\n$-5\r\n",
		"bad bulk len":        "*1\r\n$abc\r\n",
		"missing CRLF":        "*1\r\n$3\r\nabcXY",
		"wrong element type":  "*1\r\n:5\r\n",
		"truncated frame":     "*2\r\n$3\r\nGET\r\n",
	}
	for name, input := range cases {
		_, err := readAll(t, input)
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Errorf("%s: got %v, want *ProtocolError", name, err)
		}
	}
}

func TestWriterEncodings(t *testing.T) {
	var buf bytes.Buffer
	w := newRespWriter(&buf, 256)
	w.writeSimple("OK")
	w.writeError("ERR nope")
	w.writeInt(-7)
	w.writeBulk([]byte("hi"))
	w.writeNil()
	w.writeArrayHeader(2)
	w.writeBulk(nil)
	w.writeInt(0)
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	want := "+OK\r\n-ERR nope\r\n:-7\r\n$2\r\nhi\r\n$-1\r\n*2\r\n$0\r\n\r\n:0\r\n"
	if buf.String() != want {
		t.Fatalf("encoded %q, want %q", buf.String(), want)
	}
}

// Reply encoding must not allocate per element: integer headers format
// into the writer's scratch array, so an MGET reply costs zero
// allocations per key no matter how many keys the client asks for.
func TestWriterZeroAllocs(t *testing.T) {
	w := newRespWriter(io.Discard, 1<<20)
	val := bytes.Repeat([]byte("v"), 64)
	allocs := testing.AllocsPerRun(200, func() {
		w.writeArrayHeader(16)
		for i := 0; i < 16; i++ {
			w.writeBulk(val)
		}
		w.writeInt(1234567890)
		w.writeNil()
		w.flush()
	})
	if allocs != 0 {
		t.Fatalf("reply encoding allocates %.1f times per run, want 0", allocs)
	}
}

// The reader must never allocate a huge buffer just because a frame
// header promises one: limits apply before allocation.
func TestReaderBoundsAllocation(t *testing.T) {
	r := newRespReader(strings.NewReader("*1\r\n$999999999\r\n"), 16, 1<<20)
	_, err := r.ReadCommand()
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("oversized bulk accepted: %v", err)
	}
}

// loopReader replays one byte sequence forever, so an allocation gate
// can feed the parser an endless command stream with a zero-cost source.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// Command parsing must not allocate at steady state: argument bytes land
// in the per-connection arena and the argument vector is reused, so GET,
// SET, and a 16-key MGET all parse with zero allocations per frame. This
// mirrors the reply-writer gate (TestWriterZeroAllocs) on the read side.
func TestReadCommandZeroAllocs(t *testing.T) {
	frames := map[string]string{
		"GET":    "*2\r\n$3\r\nGET\r\n$4\r\nkey1\r\n",
		"SET":    "*3\r\n$3\r\nSET\r\n$4\r\nkey1\r\n$64\r\n" + strings.Repeat("v", 64) + "\r\n",
		"MGET":   "*17\r\n$4\r\nMGET\r\n" + strings.Repeat("$6\r\nkey000\r\n", 16),
		"inline": "GET key1\r\n",
	}
	for name, frame := range frames {
		t.Run(name, func(t *testing.T) {
			r := newRespReader(&loopReader{data: []byte(frame)}, maxFrameArgs, maxBulkBytes)
			defer r.release()
			// Warm up so the arena and argument vector reach steady state.
			for i := 0; i < 4; i++ {
				if _, err := r.ReadCommand(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := r.ReadCommand(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("parsing allocates %.1f times per frame, want 0", allocs)
			}
		})
	}
}

// parseInt must agree with strconv.ParseInt on the protocol-relevant
// inputs and reject everything else, without allocating.
func TestParseInt(t *testing.T) {
	good := map[string]int64{
		"0": 0, "7": 7, "1024": 1024, "-1": -1, "+15": 15,
		"9223372036854775807": 9223372036854775807,
	}
	for in, want := range good {
		got, err := parseInt([]byte(in))
		if err != nil || got != want {
			t.Errorf("parseInt(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	bad := []string{"", "-", "+", "abc", "12x", " 1", "1 ", "9223372036854775808", "99999999999999999999"}
	for _, in := range bad {
		if _, err := parseInt([]byte(in)); err == nil {
			t.Errorf("parseInt(%q) accepted, want error", in)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		parseInt([]byte("123456789"))
		parseInt([]byte("not-a-number"))
	})
	if allocs != 0 {
		t.Fatalf("parseInt allocates %.1f times per run, want 0", allocs)
	}
}

// The arena contract: args returned by ReadCommand are invalidated by
// the next ReadCommand. The test proves both halves — the same backing
// memory really is reused (so any handler that retained args would see
// them change), and a deep copy survives.
func TestParserArenaReuse(t *testing.T) {
	input := "*3\r\n$3\r\nSET\r\n$4\r\nkey1\r\n$4\r\nval1\r\n" +
		"*3\r\n$3\r\nSET\r\n$4\r\nkey2\r\n$4\r\nval2\r\n"
	r := newRespReader(strings.NewReader(input), maxFrameArgs, maxBulkBytes)
	first, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	copied := append([]byte(nil), first[1]...)
	if _, err := r.ReadCommand(); err != nil {
		t.Fatal(err)
	}
	// The retained (uncopied) arg now aliases the second frame's bytes.
	if !bytes.Equal(first[1], []byte("key2")) {
		t.Fatalf("expected arena reuse to overwrite retained arg, got %q", first[1])
	}
	if !bytes.Equal(copied, []byte("key1")) {
		t.Fatalf("copied arg corrupted: %q", copied)
	}
}

// One oversized frame must not pin its arena forever: after the frame is
// consumed, the next ReadCommand drops an arena grown past the retain
// bound, and release never pools one.
func TestParserArenaShrinks(t *testing.T) {
	big := strings.Repeat("x", 1<<20)
	input := "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1048576\r\n" + big + "\r\n" +
		"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"
	r := newRespReader(strings.NewReader(input), maxFrameArgs, maxBulkBytes)
	if _, err := r.ReadCommand(); err != nil {
		t.Fatal(err)
	}
	if cap(r.arena) < 1<<20 {
		t.Fatalf("arena did not grow for the big frame: cap=%d", cap(r.arena))
	}
	if _, err := r.ReadCommand(); err != nil {
		t.Fatal(err)
	}
	if cap(r.arena) > arenaRetainBytes {
		t.Fatalf("arena cap %d retained past the %d bound", cap(r.arena), arenaRetainBytes)
	}
	r.release()
}
