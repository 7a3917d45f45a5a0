// RESP2 wire protocol: command parsing and reply encoding.
//
// The reader accepts both framings real clients use: RESP arrays of bulk
// strings ("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n") and inline commands
// ("GET k\r\n"), interleaved freely on one connection. Replies are the
// five RESP2 types: simple string, error, integer, bulk string, array.
//
// Parsing is zero-allocation at steady state: every command's argument
// bytes land in a per-connection arena that ReadCommand reuses frame
// after frame, and the returned argument vector is itself a reused
// slice. The contract is therefore strict: **args are valid only until
// the next ReadCommand call** — a handler that retains an argument past
// that point (the MULTI queue is the only one in this server) must copy
// it. TestReadCommandZeroAllocs is the gate; TestParserArenaReuse is the
// aliasing regression test.
//
// Malformed input is reported as a *ProtocolError; the connection layer
// replies with "-ERR protocol error: ..." and closes, matching Redis.
// All frame dimensions are bounded (element count, bulk length, inline
// line length) so a hostile peer cannot make the server allocate
// unbounded memory from a tiny frame header.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// Parse limits. Conservative versions of Redis's own defaults, sized so
// a single frame can never demand more memory than a legitimate value.
const (
	// maxFrameArgs bounds elements per command array.
	maxFrameArgs = 1024
	// maxBulkBytes bounds one bulk-string payload (keys and values).
	maxBulkBytes = 8 << 20
	// maxInlineLen bounds one inline command line.
	maxInlineLen = 64 << 10
	// arenaRetainBytes is the largest argument arena a connection keeps
	// across commands (and the largest one the reader pool retains): a
	// single multi-megabyte SET grows the arena for that frame only, then
	// the arena is released back to the allocator so idle connections do
	// not pin peak-frame memory.
	arenaRetainBytes = 64 << 10
)

// ProtocolError is a malformed-frame error. It is connection-fatal: the
// stream position after a bad frame is unknowable, so the server replies
// once and closes.
type ProtocolError struct{ msg string }

func (e *ProtocolError) Error() string { return "protocol error: " + e.msg }

func protoErrf(format string, args ...any) error {
	return &ProtocolError{msg: fmt.Sprintf(format, args...)}
}

// respReader decodes a stream of client commands.
//
// The arena layout: readBulk appends each payload (plus its CRLF, which
// keeps reads contiguous) to arena and records the payload length in
// lens; once the whole frame is read, sliceArgs carves the argument
// vector out of the final arena backing array. Recording lengths instead
// of slices matters because the arena may reallocate while a frame is
// still being read — earlier payloads move, and only the end-of-frame
// slicing sees their final addresses.
type respReader struct {
	br      *bufio.Reader
	maxArgs int
	maxBulk int

	args  [][]byte // reused argument vector returned by ReadCommand
	arena []byte   // reused payload arena the args point into
	lens  []int    // per-argument payload lengths of the current frame
}

// readerPool recycles respReaders (and their bufio buffers + arenas)
// across connections, so churning short-lived connections reuses parser
// memory instead of growing the heap.
var readerPool = sync.Pool{New: func() any { return &respReader{br: bufio.NewReader(nil)} }}

func newRespReader(r io.Reader, maxArgs, maxBulk int) *respReader {
	rr := readerPool.Get().(*respReader)
	rr.br.Reset(r)
	rr.maxArgs = maxArgs
	rr.maxBulk = maxBulk
	return rr
}

// release returns the reader to the pool. The caller must not use the
// reader (or any args it returned) afterwards.
func (r *respReader) release() {
	r.br.Reset(nil)
	clear(r.args)
	r.args = r.args[:0]
	r.lens = r.lens[:0]
	if cap(r.arena) > arenaRetainBytes {
		r.arena = nil
	} else {
		r.arena = r.arena[:0]
	}
	readerPool.Put(r)
}

// buffered reports whether more client bytes are already in memory — the
// pipelining signal: the connection loop defers its reply flush while
// another command is already waiting.
func (r *respReader) buffered() bool { return r.br.Buffered() > 0 }

// readLine reads up to CRLF (tolerating bare LF for inline telnet use)
// and returns the line without its terminator. The line aliases the
// bufio buffer and is valid only until the next read.
func (r *respReader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, protoErrf("line exceeds %d bytes", r.br.Size())
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	line = bytes.TrimSuffix(line, []byte{'\r'})
	if len(line) > maxInlineLen {
		return nil, protoErrf("line exceeds %d bytes", maxInlineLen)
	}
	return line, nil
}

// resetFrame invalidates the previous command's args and reclaims the
// arena. An arena grown past the retain bound by one oversized frame is
// dropped here — the previous frame's args die with it, which is exactly
// the args-valid-until-next-read contract.
func (r *respReader) resetFrame() {
	r.lens = r.lens[:0]
	if cap(r.arena) > arenaRetainBytes {
		r.arena = nil
	} else {
		r.arena = r.arena[:0]
	}
}

// grow extends the arena by n bytes and returns the destination slice.
func (r *respReader) grow(n int) []byte {
	off := len(r.arena)
	if off+n > cap(r.arena) {
		na := make([]byte, off, max(2*cap(r.arena), off+n))
		copy(na, r.arena)
		r.arena = na
	}
	r.arena = r.arena[:off+n]
	return r.arena[off : off+n]
}

// sliceArgs carves the frame's argument vector out of the (final) arena.
// Each payload sits at its recorded length followed by 2 terminator
// bytes (CRLF for bulk strings, padding for inline fields).
func (r *respReader) sliceArgs() [][]byte {
	args := r.args[:0]
	off := 0
	for _, n := range r.lens {
		args = append(args, r.arena[off:off+n:off+n])
		off += n + 2
	}
	r.args = args
	return args
}

// ReadCommand returns the next command as its argument vector. An empty
// vector with a nil error means "no command" (blank inline line or empty
// array); callers skip it and read again.
//
// The returned vector and its argument bytes are owned by the reader and
// are valid only until the next ReadCommand call; retain by copying.
func (r *respReader) ReadCommand() ([][]byte, error) {
	c, err := r.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if c != '*' {
		if err := r.br.UnreadByte(); err != nil {
			return nil, err
		}
		return r.readInline()
	}
	header, err := r.readLine()
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	n, err := parseInt(header)
	if err != nil {
		return nil, protoErrf("invalid multibulk length %q", header)
	}
	if n < 0 || n > int64(r.maxArgs) {
		return nil, protoErrf("multibulk length %d out of range [0, %d]", n, r.maxArgs)
	}
	r.resetFrame()
	for i := int64(0); i < n; i++ {
		if err := r.readBulk(); err != nil {
			return nil, err
		}
	}
	return r.sliceArgs(), nil
}

// readBulk reads one "$<len>\r\n<bytes>\r\n" element into the arena.
func (r *respReader) readBulk() error {
	c, err := r.br.ReadByte()
	if err != nil {
		return unexpectedEOF(err)
	}
	if c != '$' {
		return protoErrf("expected bulk string ('$'), got %q", c)
	}
	header, err := r.readLine()
	if err != nil {
		return unexpectedEOF(err)
	}
	n, err := parseInt(header)
	if err != nil {
		return protoErrf("invalid bulk length %q", header)
	}
	if n < 0 || n > int64(r.maxBulk) {
		return protoErrf("bulk length %d out of range [0, %d]", n, r.maxBulk)
	}
	buf := r.grow(int(n) + 2)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return unexpectedEOF(err)
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return protoErrf("bulk string missing CRLF terminator")
	}
	r.lens = append(r.lens, int(n))
	return nil
}

// readInline splits a plain text line into arguments, copying the fields
// into the arena so inline and array commands share one lifetime rule.
func (r *respReader) readInline() ([][]byte, error) {
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	r.resetFrame()
	for i := 0; i < len(line); {
		for i < len(line) && asciiSpace(line[i]) {
			i++
		}
		if i == len(line) {
			break
		}
		j := i
		for j < len(line) && !asciiSpace(line[j]) {
			j++
		}
		if len(r.lens) >= r.maxArgs {
			return nil, protoErrf("inline command has more than %d arguments", r.maxArgs)
		}
		dst := r.grow(j - i + 2)
		copy(dst, line[i:j])
		r.lens = append(r.lens, j-i)
		i = j
	}
	return r.sliceArgs(), nil
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r' || c == '\n'
}

// parseInt is a zero-allocation strconv.ParseInt(string(b), 10, 64):
// the string conversion it replaces allocated on every bulk-length and
// array-length header, which dominated the parse profile.
func parseInt(b []byte) (int64, error) {
	i := 0
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i = 1
	}
	if i == len(b) {
		return 0, errBadInt
	}
	var n int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, errBadInt
		}
		d := int64(c - '0')
		if n > (math.MaxInt64-d)/10 {
			return 0, errBadInt
		}
		n = n*10 + d
	}
	if neg {
		n = -n
	}
	return n, nil
}

var errBadInt = errors.New("invalid integer")

// unexpectedEOF converts a mid-frame EOF into an explicit truncated-frame
// protocol error; genuine IO errors pass through.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return protoErrf("truncated frame")
	}
	return err
}

// respWriter encodes replies onto a buffered writer. The buffer bound is
// set by the connection (writeBufBytes); a full buffer writes
// through to the socket, so per-connection reply memory stays bounded no
// matter how deep the client pipelines.
type respWriter struct {
	bw *bufio.Writer
	// num is the integer-encoding scratch: length prefixes and integer
	// replies format into it with strconv.AppendInt, so encoding a reply
	// — even an MGET array with one bulk header per key — allocates
	// nothing (asserted by TestWriterZeroAllocs).
	num [32]byte
}

// writerPool recycles respWriters across connections. Writers with a
// non-default buffer size are pooled too; newRespWriter replaces the
// bufio.Writer when the requested size differs.
var writerPool = sync.Pool{New: func() any { return &respWriter{} }}

func newRespWriter(w io.Writer, bufBytes int) *respWriter {
	rw := writerPool.Get().(*respWriter)
	if rw.bw == nil || rw.bw.Size() != bufBytes {
		rw.bw = bufio.NewWriterSize(w, bufBytes)
	} else {
		rw.bw.Reset(w)
	}
	return rw
}

// release returns the writer to the pool; the caller flushes first.
func (w *respWriter) release() {
	w.bw.Reset(nil)
	writerPool.Put(w)
}

func (w *respWriter) flush() error { return w.bw.Flush() }

func (w *respWriter) writeSimple(s string) error {
	w.bw.WriteByte('+')
	w.bw.WriteString(s)
	_, err := w.bw.WriteString("\r\n")
	return err
}

func (w *respWriter) writeError(msg string) error {
	w.bw.WriteByte('-')
	w.bw.WriteString(msg)
	_, err := w.bw.WriteString("\r\n")
	return err
}

func (w *respWriter) writeInt(n int64) error {
	w.bw.WriteByte(':')
	w.bw.Write(strconv.AppendInt(w.num[:0], n, 10))
	_, err := w.bw.WriteString("\r\n")
	return err
}

func (w *respWriter) writeBulk(b []byte) error {
	w.bw.WriteByte('$')
	w.bw.Write(strconv.AppendInt(w.num[:0], int64(len(b)), 10))
	w.bw.WriteString("\r\n")
	w.bw.Write(b)
	_, err := w.bw.WriteString("\r\n")
	return err
}

func (w *respWriter) writeNil() error {
	_, err := w.bw.WriteString("$-1\r\n")
	return err
}

func (w *respWriter) writeArrayHeader(n int) error {
	w.bw.WriteByte('*')
	w.bw.Write(strconv.AppendInt(w.num[:0], int64(n), 10))
	_, err := w.bw.WriteString("\r\n")
	return err
}
