package server

import (
	"bufio"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// rawConn speaks RESP at the byte level, so replies can be compared
// byte for byte across dispatch paths.
type rawConn struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

// send writes the commands as one burst (one Write: a pipeline).
func (r *rawConn) send(cmds ...[]string) {
	r.t.Helper()
	var b strings.Builder
	for _, args := range cmds {
		b.WriteString("*" + strconv.Itoa(len(args)) + "\r\n")
		for _, a := range args {
			b.WriteString("$" + strconv.Itoa(len(a)) + "\r\n" + a + "\r\n")
		}
	}
	if _, err := io.WriteString(r.c, b.String()); err != nil {
		r.t.Fatal(err)
	}
}

// reply reads one whole reply frame (nested arrays included), raw.
func (r *rawConn) reply() string {
	r.t.Helper()
	line, err := r.br.ReadString('\n')
	if err != nil {
		r.t.Fatal(err)
	}
	n, _ := strconv.Atoi(strings.TrimSpace(line[1:]))
	switch line[0] {
	case '$':
		if n >= 0 {
			body := make([]byte, n+2)
			if _, err := io.ReadFull(r.br, body); err != nil {
				r.t.Fatal(err)
			}
			line += string(body)
		}
	case '*':
		for i := 0; i < n; i++ {
			line += r.reply()
		}
	}
	return line
}

// do is one lone command: send, then read its reply.
func (r *rawConn) do(args ...string) string {
	r.t.Helper()
	r.send(args)
	return r.reply()
}

// TestCommandTable walks the verb table — the single enumeration of the
// RESP verb set — and checks what every reader of it must agree on.
func TestCommandTable(t *testing.T) {
	store, err := shard.Open(core.Options{NumThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(5 * time.Second)
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := &rawConn{t: t, c: c, br: bufio.NewReader(c)}
	counted := func(verb string) float64 {
		m, ok := store.Metrics().Get("server.commands", map[string]string{"verb": verb})
		if !ok {
			t.Fatalf("no server.commands{verb=%s} series", verb)
		}
		return m.Value
	}

	// A malformed command is refused with the same bytes outside MULTI
	// and at MULTI queue time (where it also poisons the block), for
	// every verb with an arity rule and for an unknown verb — which is
	// counted under {verb=other}, never under a series of its own.
	malformed := [][]string{{"NOSUCH", "x"}}
	for _, cmd := range commandList {
		var counts []int
		switch {
		case cmd.arity > 0:
			counts = []int{cmd.arity - 1, cmd.arity + 1}
		case cmd.arity < 0:
			counts = []int{-cmd.arity - 1}
		}
		if cmd.pairs {
			counts = append(counts, -cmd.arity+1)
		}
		for _, n := range counts {
			if n >= 1 {
				malformed = append(malformed, append([]string{strings.ToLower(cmd.name)}, make([]string, n-1)...))
			}
		}
	}
	other0 := counted("other")
	for _, args := range malformed {
		outside := conn.do(args...)
		if !strings.HasPrefix(outside, "-ERR ") {
			t.Errorf("%q outside MULTI = %q, want an error", args, outside)
		}
		conn.do("MULTI")
		if queued := conn.do(args...); queued != outside {
			t.Errorf("%q at queue time = %q, outside MULTI = %q", args, queued, outside)
		}
		if r := conn.do("EXEC"); !strings.HasPrefix(r, "-EXECABORT") {
			t.Errorf("EXEC after malformed %q = %q, want EXECABORT", args, r)
		}
	}
	if got := counted("other") - other0; got != 2 {
		t.Errorf("server.commands{verb=other} moved by %v for 2 unknown commands", got)
	}
	// Every row owns a counter, and dispatching the verb moves it.
	for _, cmd := range commandList {
		if cmd.quit {
			continue
		}
		n0 := counted(cmd.name)
		conn.do(append([]string{cmd.name}, make([]string, max(cmd.arity, -cmd.arity, 1)-1)...)...)
		if cmd.name == "MULTI" {
			conn.do("DISCARD")
		}
		if got := counted(cmd.name) - n0; got < 1 {
			t.Errorf("server.commands{verb=%s} moved by %v after one %s", cmd.name, got, cmd.name)
		}
	}

	// The single-key verbs answer identically through every dispatch
	// path: lone submit+drain, a depth-16 pipelined burst, and the EXEC
	// batch/locked handlers. The script leaves the keys deleted, so each
	// pass starts from the same state.
	script := [][]string{
		{"GET", "a"}, {"EXISTS", "a"}, {"DEL", "a"},
		{"SET", "a", "1"}, {"GET", "a"}, {"EXISTS", "a"},
		{"SET", "a", "22"}, {"GET", "a"},
		{"SET", "b", ""}, {"GET", "b"}, {"EXISTS", "b"},
		{"DEL", "a"}, {"DEL", "a"}, {"GET", "a"}, {"EXISTS", "a"},
		{"DEL", "b"},
	}
	var lone []string
	for _, args := range script {
		lone = append(lone, conn.do(args...))
	}
	want := []string{
		"$-1\r\n", ":0\r\n", ":0\r\n",
		"+OK\r\n", "$1\r\n1\r\n", ":1\r\n",
		"+OK\r\n", "$2\r\n22\r\n",
		"+OK\r\n", "$0\r\n\r\n", ":1\r\n",
		":1\r\n", ":0\r\n", "$-1\r\n", ":0\r\n",
		":1\r\n",
	}
	for i := range script {
		if lone[i] != want[i] {
			t.Errorf("lone %q = %q, want %q", script[i], lone[i], want[i])
		}
	}
	bursts0, _ := store.Metrics().Value("server.pipeline_bursts")
	conn.send(script...)
	for i := range script {
		if got := conn.reply(); got != lone[i] {
			t.Errorf("pipelined %q = %q, lone = %q", script[i], got, lone[i])
		}
	}
	if bursts, _ := store.Metrics().Value("server.pipeline_bursts"); bursts-bursts0 > float64(len(script))/2 {
		t.Errorf("the %d-command burst drained in %v bursts: not pipelined", len(script), bursts-bursts0)
	}
	conn.do("MULTI")
	for _, args := range script {
		if r := conn.do(args...); r != "+QUEUED\r\n" {
			t.Fatalf("queueing %q = %q", args, r)
		}
	}
	if got, want := conn.do("EXEC"), "*"+strconv.Itoa(len(script))+"\r\n"+strings.Join(lone, ""); got != want {
		t.Errorf("EXEC = %q, want the lone replies %q", got, want)
	}
}
