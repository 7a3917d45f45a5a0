package server_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/respclient"
)

// frame encodes one command as a RESP array.
func frame(args ...string) []byte {
	b := []byte("*" + strconv.Itoa(len(args)) + "\r\n")
	for _, a := range args {
		b = append(b, "$"+strconv.Itoa(len(a))+"\r\n"+a+"\r\n"...)
	}
	return b
}

// TestWireCommandAllocatesNothing: at steady state a GET or a SET over
// the wire allocates nothing anywhere in the process — parsing, dispatch
// through the async pipeline, the store, the reply — whether it comes
// alone (submit, drain, reply) or in a pipelined burst. The client side
// writes pre-encoded frames and reads the replies into a fixed buffer, so
// it allocates nothing either; what little is left is the runtime's.
func TestWireCommandAllocatesNothing(t *testing.T) {
	// One store thread and a ring that never fills: no reclaim pass runs.
	_, addr := serve(t, core.Options{NumThreads: 1, PWBBytesPerThread: 16 << 20}, server.Config{}, 5*time.Second)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const keys, depth = 32, 16
	sets, gets, found := make([][]byte, keys), make([][]byte, keys), make([][]byte, keys)
	for i := range keys {
		k, v := fmt.Sprintf("key%03d", i), fmt.Sprintf("%03d:%01021d", i, i)
		sets[i], gets[i] = frame("SET", k, v), frame("GET", k)
		found[i] = []byte("$" + strconv.Itoa(len(v)) + "\r\n" + v + "\r\n")
	}
	ok := []byte("+OK\r\n")
	burst := make([]byte, 0, depth*len(sets[0]))
	buf := make([]byte, 2*depth*len(found[0]))
	// run sends n commands, depth at a time, and checks every reply.
	run := func(n, depth int) {
		for i := 0; i < n; i += depth {
			burst, want := burst[:0], buf[:0]
			for j := i; j < i+depth; j++ {
				if k := j / 2 % keys; j%2 == 0 {
					burst, want = append(burst, sets[k]...), append(want, ok...)
				} else {
					burst, want = append(burst, gets[k]...), append(want, found[k]...)
				}
			}
			if _, err := conn.Write(burst); err != nil {
				t.Fatal(err)
			}
			got := buf[len(want) : 2*len(want)]
			if _, err := io.ReadFull(conn, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("commands %d..%d replied %q, want %q", i, i+depth-1, got, want)
			}
		}
	}
	for _, c := range []struct {
		name  string
		depth int
	}{{"lone", 1}, {"pipelined", depth}} {
		t.Run(c.name, func(t *testing.T) {
			const n = 4000
			run(4*keys, c.depth)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			run(n, c.depth)
			runtime.ReadMemStats(&m1)
			per := float64(m1.Mallocs-m0.Mallocs) / n
			t.Logf("%.4f allocations per command", per)
			if per >= 0.05 {
				t.Fatalf("%.4f allocations per command, want < 0.05", per)
			}
		})
	}
}

// TestReplyOutlivesHandleStress: connections pinned to one store thread
// share its handles, so a GET's handle — and the buffer its value is in —
// is another connection's SET as soon as it is released. Every reply is
// checked against values that name their key and version: a reply written
// from a buffer already reused shows up as another connection's bytes.
// The reply buffer is smaller than a value, so every GET's value is
// written to the socket straight from the handle's buffer. make race runs
// it.
func TestReplyOutlivesHandleStress(t *testing.T) {
	_, addr := serve(t, core.Options{NumThreads: 1}, server.Config{}, 5*time.Second,
		func(s *server.Server) { s.SetWriteBufBytes(1024) })
	const conns, rounds, depth = 4, 300, 8
	val := func(c, k, r int) string {
		return fmt.Sprintf("c%d-k%d-r%d:%0*d", c, k, r, 2048+(r*97)%2048, r)
	}
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := respclient.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for r := 0; r < rounds; r++ {
				for k := 0; k < depth; k++ {
					key := fmt.Sprintf("c%d-%d", c, k)
					cl.Send("SET", key, val(c, k, r))
					cl.Send("GET", key)
				}
				if err := cl.Flush(); err != nil {
					errs <- err
					return
				}
				for k := 0; k < depth; k++ {
					set, err := cl.Receive()
					if err != nil || set.Str != "OK" {
						errs <- fmt.Errorf("conn %d round %d: SET replied %+v (%v)", c, r, set, err)
						return
					}
					get, err := cl.Receive()
					if want := val(c, k, r); err != nil || get.Str != want {
						at := 0
						for at < min(len(get.Str), len(want)) && get.Str[at] == want[at] {
							at++
						}
						errs <- fmt.Errorf("conn %d round %d: GET key %d replied %d bytes (%v), want %d; from byte %d: %.24q, want %.24q",
							c, r, k, len(get.Str), err, len(want), at, get.Str[at:], want[at:])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
