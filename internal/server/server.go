// Package server exposes a Prism store (the shard-routed front end over
// one or more core engines) over TCP speaking the RESP2 protocol, so
// stock Redis/Valkey clients and workload generators can drive the
// store (ROADMAP "network server" item).
//
// Threading model: Prism's engine hands out per-thread handles
// (Store.Thread(i)); the server pins each accepted connection to one
// handle round-robin — the paper's thread model (§4) carried across the
// wire. Dispatch is contention-free for the hot verbs: single-key
// GET/SET/DEL/EXISTS are always submitted through the store's
// asynchronous admission pipeline (core PutAsync/GetAsync/DeleteAsync),
// whose entry points are concurrency-safe, so concurrent connections
// pinned to one store thread queue their work in the admission ring
// instead of convoying on a mutex. Only the multi-key verbs
// (MGET/MSET/SCAN, multi-key DEL/EXISTS) and MULTI/EXEC blocks — which
// need the handle's synchronous single-owner surface — serialize on the
// per-handle mutex; the wall time spent acquiring it (or waiting out an
// async burst) is visible as server.dispatch_wait. With sharding
// enabled the handle is the router's: multi-key commands fan out to the
// owning shards in parallel, and SCAN k-way merges per-shard ordered
// scans — all transparent at the protocol level.
//
// Supported commands (RESP arrays or inline, case-insensitive):
//
//	PING [msg]            ECHO msg
//	GET k                 SET k v
//	DEL k [k ...]         EXISTS k [k ...]
//	MGET k [k ...]        MSET k v [k v ...]
//	MULTI / EXEC          queue commands, then run them as one batch
//	DISCARD               abort a MULTI block
//	SCAN start count      range scan (Prism-style: start key + limit,
//	                      flat key,value,... array — not Redis cursors)
//	DBSIZE                INFO
//	COMMAND               QUIT
//
// Pipelining: commands are executed in arrival order and replies are
// buffered (bounded by Config.WriteBufBytes) until the input buffer
// drains, so a deep pipeline costs one flush, not one per command.
// Because single-key verbs always ride the async pipeline, a pipelined
// burst of N commands coalesces into a handful of admission windows —
// one epoch enter and one PWB publish window per window instead of per
// command — while replies are still written in protocol order when the
// burst drains. A lone command is the degenerate burst: submit, drain
// immediately (submit+wait), reply. The pending burst always drains
// before any other verb executes, which preserves the same-connection
// guarantee: a command always observes the writes of every command
// before it on that connection.
//
// Parsing and encoding are zero-allocation at steady state: commands
// are parsed into a per-connection arena (args are valid only until the
// next read — the MULTI queue, the one handler that retains them,
// copies), and reader/writer buffers are pooled across connections via
// sync.Pool, so connection churn reuses parser memory.
//
// Batching: MSET maps to the store's PutBatch and MGET to MultiGet, so a
// multi-key command enters the epoch once instead of once per key. A
// MULTI/EXEC block goes further: EXEC holds the connection's thread slot
// for the whole block and coalesces consecutive SETs into one PutBatch
// and consecutive GETs into one MultiGet. Blocks are isolated from other
// connections on the same slot but are not atomic under crashes — a
// crash mid-EXEC durably keeps a prefix of the block (see core.PutBatch).
package server

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// Config tunes a Server. The zero value is production-shaped defaults.
type Config struct {
	// MaxConns caps concurrently served connections; excess connections
	// receive "-ERR max connections" and are closed. Default 256.
	MaxConns int
	// IdleTimeout bounds the wait for the next command on an idle
	// connection. Default 5 minutes.
	IdleTimeout time.Duration
	// WriteBufBytes bounds per-connection buffered reply bytes before
	// writing through to the socket. Default 64 KiB.
	WriteBufBytes int
	// MaxArgs and MaxBulkBytes bound a single command frame; see
	// DefaultMaxArgs / DefaultMaxBulk.
	MaxArgs      int
	MaxBulkBytes int
	// MaxMultiQueued caps commands queued inside one MULTI block; the
	// block is marked aborted past the cap, so a client cannot buffer
	// unbounded command memory server-side. Default 1024.
	MaxMultiQueued int
}

func (c *Config) applyDefaults() {
	if c.MaxConns == 0 {
		c.MaxConns = 256
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.WriteBufBytes == 0 {
		c.WriteBufBytes = 64 << 10
	}
	if c.MaxArgs == 0 {
		c.MaxArgs = DefaultMaxArgs
	}
	if c.MaxBulkBytes == 0 {
		c.MaxBulkBytes = DefaultMaxBulk
	}
	if c.MaxMultiQueued == 0 {
		c.MaxMultiQueued = 1024
	}
}

// lockedThread guards a store thread's synchronous single-owner surface
// (multi-key verbs, SCAN, MULTI/EXEC blocks). Single-key verbs bypass it
// entirely: they ride the concurrency-safe async admission pipeline.
type lockedThread struct {
	mu sync.Mutex
	th *shard.Thread
}

// queuedCmd is one command held in a MULTI block, already resolved to
// its table row so EXEC's run-coalescing compares pointers.
type queuedCmd struct {
	cmd  *command
	args [][]byte
}

// pendingReply is one pipelined command in flight on the store's async
// pipeline: the completion handle plus the table row that renders its
// result when the burst drains, and the submit time that feeds
// server.cmd_latency when the reply is finally written.
type pendingReply struct {
	cmd   *command
	h     *core.Handle
	start time.Time
}

// maxPendingReplies bounds a connection's in-flight burst; past it the
// burst drains inline before more commands are admitted (the store's
// own per-thread async backpressure, also 256 in flight, sits below this).
const maxPendingReplies = 256

// session is one connection's dispatch state: the pinned thread slot,
// the MULTI transaction queue, and scratch slices reused across commands
// so steady-state MGET/MSET/EXEC dispatch does not allocate per key.
type session struct {
	slot    *lockedThread
	inMulti bool
	txDirty bool // a queue-time error poisons the block: EXEC aborts
	queued  []queuedCmd

	kvs  []core.KV // PutBatch scratch (MSET, EXEC SET runs)
	keys [][]byte  // MultiGet key scratch (EXEC GET runs)
	vals [][]byte  // MultiGet value scratch (MGET, EXEC GET runs)

	// pending is the connection's pipelined burst: async completion
	// handles whose replies have not been written yet, in protocol order.
	pending []pendingReply
}

// resetScratch drops references into command frames and store values so
// the retained capacity cannot pin freed payloads.
func (c *session) resetScratch() {
	for i := range c.kvs {
		c.kvs[i] = core.KV{}
	}
	c.kvs = c.kvs[:0]
	for i := range c.keys {
		c.keys[i] = nil
	}
	c.keys = c.keys[:0]
	for i := range c.vals {
		c.vals[i] = nil
	}
	c.vals = c.vals[:0]
}

// resetTx clears the MULTI state after EXEC, DISCARD, or connection end.
func (c *session) resetTx() {
	c.inMulti = false
	c.txDirty = false
	c.queued = c.queued[:0]
}

// Server is a RESP2 front end over one store. Create with New; at most
// one Server may be attached to a given Store (metric registration is
// once-only).
type Server struct {
	store *shard.Store
	cfg   Config

	threads []*lockedThread
	next    atomic.Uint64 // round-robin connection->thread assignment

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	started  bool
	draining atomic.Bool
	wg       sync.WaitGroup

	m serverMetrics
}

// New builds a Server over store and registers its server.* metrics in
// the store's observability registry.
func New(store *shard.Store, cfg Config) *Server {
	cfg.applyDefaults()
	s := &Server{
		store: store,
		cfg:   cfg,
		conns: make(map[net.Conn]struct{}),
	}
	for i := 0; i < store.NumThreads(); i++ {
		s.threads = append(s.threads, &lockedThread{th: store.Thread(i)})
	}
	s.registerMetrics(store.MetricsRegistry())
	return s
}

// Addr returns the listening address (nil before Serve/ListenAndServe).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAndServe listens on addr ("host:port") and serves until
// Shutdown. It blocks; run it on its own goroutine.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown closes it.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already serving")
	}
	s.started = true
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil // Shutdown closed the listener
			}
			return err
		}
		if !s.admit(conn) {
			continue
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// admit enforces MaxConns and registers the connection for Shutdown.
func (s *Server) admit(conn net.Conn) bool {
	s.mu.Lock()
	if len(s.conns) >= s.cfg.MaxConns || s.draining.Load() {
		s.mu.Unlock()
		s.m.rejected.Inc()
		conn.Write([]byte("-ERR max connections reached\r\n"))
		conn.Close()
		return false
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.m.connsTotal.Inc()
	s.m.connsCur.Add(1)
	return true
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.m.connsCur.Add(-1)
	conn.Close()
}

// Shutdown drains gracefully: stop accepting, let every connection
// finish the commands already buffered in its pipeline, then close. If
// the drain exceeds timeout, remaining connections are force-closed.
func (s *Server) Shutdown(timeout time.Duration) error {
	if s.draining.Swap(true) {
		return errors.New("server: already shut down")
	}
	// Commands already sent (in a connection's parse buffer or still in
	// the kernel socket buffer) drain within a grace window; after it,
	// the absolute deadline fires and every connection closes. An
	// expired deadline would fail reads of already-received bytes too,
	// so the grace must be in the future.
	grace := timeout / 2
	if grace > time.Second {
		grace = time.Second
	}
	if grace < 10*time.Millisecond {
		grace = 10 * time.Millisecond
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now().Add(grace))
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	<-done
	return errors.New("server: drain timeout; connections force-closed")
}

// serveConn runs one connection's read-dispatch-reply loop.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)

	sess := &session{slot: s.threads[(s.next.Add(1)-1)%uint64(len(s.threads))]}
	r := newRespReader(&countingReader{r: conn, n: s.m.bytesIn}, s.cfg.MaxArgs, s.cfg.MaxBulkBytes)
	w := newRespWriter(&countingWriter{w: conn, n: s.m.bytesOut}, s.cfg.WriteBufBytes)
	defer r.release()
	defer w.release()

	for {
		// The deadline is refreshed per command, so it acts as an idle
		// timeout; Shutdown retracts it to now to begin the drain.
		if !s.draining.Load() {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		args, err := r.ReadCommand()
		if err != nil {
			// Write out whatever the burst already earned before closing.
			s.drainPipeline(sess, w)
			var pe *ProtocolError
			if errors.As(err, &pe) {
				s.m.parseErrs.Inc()
				w.writeError("ERR " + pe.Error())
			}
			w.flush()
			return
		}
		if len(args) == 0 {
			continue
		}
		cmd := lookup(args[0])
		// Contention-free fast path: single-key verbs are always
		// submitted asynchronously — no thread-slot mutex — and their
		// replies deferred, so the admission loop coalesces pipelined
		// bursts into a few windows and concurrent connections on one
		// store thread queue instead of convoying. A lone command drains
		// immediately below (submit+wait).
		if s.tryAsync(sess, cmd, args) {
			if len(sess.pending) >= maxPendingReplies {
				s.drainPipeline(sess, w)
			}
			if !r.buffered() {
				s.drainPipeline(sess, w)
				if w.flush() != nil {
					return
				}
			}
			continue
		}
		// Any other verb waits for the burst: replies stay in protocol
		// order and the command observes every prior write.
		s.drainPipeline(sess, w)
		quit := s.dispatch(sess, w, cmd, args)
		// Flush only once the pipeline drains: replies to back-to-back
		// commands share one write.
		if !r.buffered() {
			if w.flush() != nil {
				return
			}
		}
		if quit {
			return
		}
	}
}

// command is one row of the verb table: everything the server knows
// about a RESP verb. Parsing, the async fast path, MULTI queueing, EXEC,
// the reply encoders and the per-verb metrics all read this one table,
// so a verb is added — or its arity, class or handler changed — in
// exactly one place. Rows hold plain funcs, not method values (a method
// value allocates per call).
type command struct {
	name string // canonical uppercase verb: the lookup key and the server.commands{verb} label
	slot int    // index of the verb's counter in serverMetrics.commands

	// arity counts the verb itself, Redis-style: n > 0 means exactly n
	// arguments, n < 0 at least -n, 0 unchecked. pairs additionally
	// requires whole key/value pairs after the verb (MSET). usage
	// replaces the stock arity error text.
	arity int
	pairs bool
	usage string

	class cmdClass // server.cmd_latency{class}

	// control verbs (MULTI/EXEC/DISCARD/QUIT) run immediately even inside
	// a MULTI block; quit closes the connection after the reply.
	control, quit bool

	// submit, when set, is the contention-free path of the single-key
	// form (exactly |arity| arguments): outside MULTI the command is
	// submitted to the store's async pipeline — no thread-slot lock — and
	// reply renders its completion when the burst drains.
	submit func(th *shard.Thread, args [][]byte) *core.Handle
	reply  func(w *respWriter, val []byte, err error)

	// run executes the command synchronously; locked says it needs the
	// store thread's single-owner surface (the slot mutex is held and
	// server.cmd_virtual_ns recorded around it). GET and SET have no run:
	// outside MULTI a well-formed one always takes submit, and EXEC hands
	// a whole run of adjacent ones to batch (one PutBatch / MultiGet).
	locked bool
	run    func(s *Server, sess *session, w *respWriter, args [][]byte)
	batch  func(sess *session, w *respWriter, run []queuedCmd)
}

// cmdClass labels server.cmd_latency: latency profiles differ by what a
// command does (point read vs write vs range scan vs transaction), not
// by individual verb, so the histogram is bucketed per class.
type cmdClass uint8

const (
	classRead cmdClass = iota
	classWrite
	classScan
	classTx
	classAdmin // also every unknown verb
	numClasses
)

var classNames = [numClasses]string{"read", "write", "scan", "tx", "admin"}

// commandList is the verb table, in server.commands registration order.
var commandList = []*command{
	{name: "PING", class: classAdmin, run: runPing},
	{name: "ECHO", arity: 2, class: classAdmin, run: runEcho},
	{name: "GET", arity: 2, class: classRead, submit: submitGet, reply: replyValue, batch: batchGets},
	{name: "SET", arity: 3, class: classWrite, submit: submitSet, reply: replyOK, batch: batchSets},
	{name: "DEL", arity: -2, class: classWrite, submit: submitDel, reply: replyFound, locked: true, run: runDel},
	{name: "EXISTS", arity: -2, class: classRead, submit: submitGet, reply: replyFound, locked: true, run: runExists},
	{name: "MGET", arity: -2, class: classRead, locked: true, run: runMGet},
	{name: "MSET", arity: -3, pairs: true, class: classWrite, locked: true, run: runMSet},
	{name: "SCAN", arity: 3, usage: "ERR usage: SCAN <start-key> <count>", class: classScan, locked: true, run: runScan},
	{name: "DBSIZE", class: classAdmin, run: runDBSize},
	{name: "INFO", class: classAdmin, run: runInfo},
	// Stock clients probe COMMAND on connect; an empty array keeps them
	// happy without exporting the table.
	{name: "COMMAND", class: classAdmin, run: func(_ *Server, _ *session, w *respWriter, _ [][]byte) { w.writeArrayHeader(0) }},
	{name: "QUIT", class: classAdmin, control: true, quit: true, run: func(_ *Server, _ *session, w *respWriter, _ [][]byte) { w.writeSimple("OK") }},
	{name: "MULTI", class: classTx, control: true, run: runMulti},
	{name: "EXEC", class: classTx, control: true, run: runExec},
	{name: "DISCARD", class: classTx, control: true, run: runDiscard},
}

// unknownCommand is the row every verb outside the table resolves to:
// counted under server.commands{verb=other} (so hostile garbage cannot
// grow the registry), timed as admin, and refused by dispatch.
var unknownCommand = &command{name: "other", slot: len(commandList), class: classAdmin}

// commands indexes commandList by name and assigns the metric slots.
var commands = func() map[string]*command {
	m := make(map[string]*command, len(commandList))
	for i, c := range commandList {
		c.slot = i
		m[c.name] = c
	}
	return m
}()

// lookup returns the table row for a command name, case-insensitively
// (unknownCommand when there is none). It never allocates (the dispatch
// hot path): the name is upper-cased into a stack buffer and the map is
// indexed with the string(buf[:n]) idiom.
func lookup(name []byte) *command {
	var buf [8]byte // longer than every verb in the table
	if len(name) <= len(buf) {
		for i, c := range name {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf[i] = c
		}
		if cmd := commands[string(buf[:len(name)])]; cmd != nil {
			return cmd
		}
	}
	return unknownCommand
}

// arityError returns the error reply for n arguments (verb included)
// violating c's arity rule, or "" when n is acceptable. The same text
// answers a malformed command outside MULTI and at MULTI queue time.
func (c *command) arityError(n int) string {
	switch {
	case c.arity > 0 && n != c.arity, c.arity < 0 && n < -c.arity, c.pairs && n%2 != 1:
		if c.usage != "" {
			return c.usage
		}
		return "ERR wrong number of arguments for '" + strings.ToLower(c.name) + "' command"
	}
	return ""
}

func submitGet(th *shard.Thread, args [][]byte) *core.Handle { return th.GetAsync(args[1]) }
func submitSet(th *shard.Thread, args [][]byte) *core.Handle { return th.PutAsync(args[1], args[2]) }
func submitDel(th *shard.Thread, args [][]byte) *core.Handle { return th.DeleteAsync(args[1]) }

// The three reply shapes of a store result. Each takes the (value,
// error) pair an async completion or a synchronous call produced.

// replyValue renders value-or-nil: a missing key (ErrNotFound, or a nil
// value in a batch read — a present empty value is non-nil) is a nil
// bulk.
func replyValue(w *respWriter, val []byte, err error) {
	switch {
	case err == nil && val != nil:
		w.writeBulk(val)
	case err == nil || errors.Is(err, core.ErrNotFound):
		w.writeNil()
	default:
		w.writeError("ERR " + err.Error())
	}
}

// replyOK renders OK-or-error.
func replyOK(w *respWriter, _ []byte, err error) {
	if err != nil {
		w.writeError("ERR " + err.Error())
		return
	}
	w.writeSimple("OK")
}

// replyFound renders 1/0-or-error: whether the key existed.
func replyFound(w *respWriter, _ []byte, err error) {
	switch {
	case err == nil:
		w.writeInt(1)
	case errors.Is(err, core.ErrNotFound):
		w.writeInt(0)
	default:
		w.writeError("ERR " + err.Error())
	}
}

// tryAsync submits one command to the store's asynchronous pipeline and
// queues its completion for the next drain. It reports false for verbs
// (or arities) that must take the synchronous dispatch path. Submission
// needs no thread-slot lock: the async entry points are concurrency-safe
// and never touch the router thread's scratch state.
func (s *Server) tryAsync(sess *session, cmd *command, args [][]byte) bool {
	if sess.inMulti || cmd.submit == nil || len(args) != cmd.arity && len(args) != -cmd.arity {
		return false
	}
	h := cmd.submit(sess.slot.th, args)
	s.m.commands[cmd.slot].Inc()
	s.m.pipelineOps.Inc()
	sess.pending = append(sess.pending, pendingReply{cmd: cmd, h: h, start: time.Now()})
	return true
}

// drainPipeline waits out the connection's in-flight burst and writes
// the replies in protocol order. The wall time blocked on completion
// handles feeds server.dispatch_wait; each command's submit-to-reply
// time feeds server.cmd_latency.
func (s *Server) drainPipeline(sess *session, w *respWriter) {
	if len(sess.pending) == 0 {
		return
	}
	s.m.pipelineBursts.Inc()
	s.m.pipelineDepth.Record(int64(len(sess.pending)))
	wait0 := time.Now()
	for i := range sess.pending {
		p := &sess.pending[i]
		val, err := p.h.Value()
		p.cmd.reply(w, val, err)
		s.m.cmdLat[p.cmd.class].Record(time.Since(p.start).Nanoseconds())
		p.h = nil
	}
	s.m.dispatchWait.Record(time.Since(wait0).Nanoseconds())
	sess.pending = sess.pending[:0]
}

// copyArgs deep-copies a parsed argument vector. The parser's args live
// in a reused arena and die at the next ReadCommand, so any handler
// that retains them past the current command (the MULTI queue) copies.
func copyArgs(args [][]byte) [][]byte {
	cp := make([][]byte, len(args))
	for i, a := range args {
		cp[i] = append([]byte(nil), a...)
	}
	return cp
}

// dispatch executes one command (cmd is args[0]'s table row) and writes
// its reply. It returns true when the connection should close (QUIT).
func (s *Server) dispatch(sess *session, w *respWriter, cmd *command, args [][]byte) (quit bool) {
	s.m.commands[cmd.slot].Inc()
	wall0 := time.Now()
	defer func() {
		d := time.Since(wall0).Nanoseconds()
		s.m.wallLat.Record(d)
		s.m.cmdLat[cmd.class].Record(d)
	}()

	if cmd.control {
		cmd.run(s, sess, w, args)
		return cmd.quit
	}
	// Validation is the same outside MULTI and at queue time; inside a
	// block, Redis-style, an unknown verb or bad arity replies
	// immediately and poisons the block, so EXEC can trust every queued
	// frame (the handlers index args without re-checking).
	msg := cmd.arityError(len(args))
	if cmd == unknownCommand {
		msg = fmt.Sprintf("ERR unknown command '%s'", strings.ToLower(string(args[0])))
	}
	if msg == "" && sess.inMulti && len(sess.queued) >= s.cfg.MaxMultiQueued {
		msg = fmt.Sprintf("ERR MULTI queue exceeds %d commands", s.cfg.MaxMultiQueued)
	}
	switch {
	case msg != "":
		if sess.inMulti {
			sess.txDirty = true
		}
		w.writeError(msg)
	case sess.inMulti:
		// args live in the parser's reused arena and are invalidated by
		// the next read, so queueing until EXEC requires a deep copy
		// (asserted by TestMultiQueueCopiesArgs).
		sess.queued = append(sess.queued, queuedCmd{cmd: cmd, args: copyArgs(args)})
		w.writeSimple("QUEUED")
	case cmd.locked:
		slot := sess.slot
		s.lockSlot(slot)
		v0 := slot.th.Clk.Now()
		cmd.run(s, sess, w, args)
		s.m.virtLat.Record(slot.th.Clk.Now() - v0)
		slot.mu.Unlock()
	default:
		cmd.run(s, sess, w, args)
	}
	return false
}

// lockSlot acquires a thread slot's mutex, recording the wall time spent
// blocked behind other connections as server.dispatch_wait.
func (s *Server) lockSlot(slot *lockedThread) {
	if slot.mu.TryLock() {
		return
	}
	t0 := time.Now()
	slot.mu.Lock()
	s.m.dispatchWait.Record(time.Since(t0).Nanoseconds())
}

func runMulti(_ *Server, sess *session, w *respWriter, _ [][]byte) {
	if sess.inMulti {
		w.writeError("ERR MULTI calls can not be nested")
		return
	}
	sess.inMulti = true
	w.writeSimple("OK")
}

func runDiscard(_ *Server, sess *session, w *respWriter, _ [][]byte) {
	if !sess.inMulti {
		w.writeError("ERR DISCARD without MULTI")
		return
	}
	sess.resetTx()
	w.writeSimple("OK")
}

// runExec runs a validated MULTI block. The thread slot is held for
// the whole block — commands from other connections pinned to the same
// store thread cannot interleave — and adjacent same-verb commands with
// a batch form coalesce into the store's batch operations: a run of SETs
// becomes one PutBatch (one epoch entry, one publish window) and a run
// of GETs one MultiGet (merged VS read extents).
func runExec(s *Server, sess *session, w *respWriter, _ [][]byte) {
	if !sess.inMulti {
		w.writeError("ERR EXEC without MULTI")
		return
	}
	defer sess.resetTx()
	if sess.txDirty {
		w.writeError("EXECABORT Transaction discarded because of previous errors.")
		return
	}
	s.m.multiExec.Inc()
	q := sess.queued
	w.writeArrayHeader(len(q))
	slot := sess.slot
	s.lockSlot(slot)
	defer slot.mu.Unlock()
	v0 := slot.th.Clk.Now()
	for i := 0; i < len(q); {
		c, j := q[i].cmd, i+1
		if c.batch == nil {
			c.run(s, sess, w, q[i].args)
		} else {
			for j < len(q) && q[j].cmd == c {
				j++
			}
			c.batch(sess, w, q[i:j])
		}
		i = j
	}
	sess.resetScratch()
	s.m.virtLat.Record(slot.th.Clk.Now() - v0)
}

// batchSets applies a run of queued SETs as one PutBatch. PutBatch
// applies a prefix before failing and does not report its length, so
// the whole run reports the error.
func batchSets(sess *session, w *respWriter, run []queuedCmd) {
	sess.kvs = sess.kvs[:0]
	for _, q := range run {
		sess.kvs = append(sess.kvs, core.KV{Key: q.args[1], Value: q.args[2]})
	}
	err := sess.slot.th.PutBatch(sess.kvs)
	for range run {
		replyOK(w, nil, err)
	}
}

// batchGets resolves a run of queued GETs as one MultiGet.
func batchGets(sess *session, w *respWriter, run []queuedCmd) {
	sess.keys = sess.keys[:0]
	for _, q := range run {
		sess.keys = append(sess.keys, q.args[1])
	}
	vals, err := sess.slot.th.MultiGetInto(sess.keys, sess.vals[:0])
	sess.vals = vals
	for i := range run {
		replyValue(w, vals[i], err)
	}
}

func runPing(_ *Server, _ *session, w *respWriter, args [][]byte) {
	if len(args) > 1 {
		w.writeBulk(args[1])
	} else {
		w.writeSimple("PONG")
	}
}

func runEcho(_ *Server, _ *session, w *respWriter, args [][]byte) { w.writeBulk(args[1]) }

func runInfo(s *Server, _ *session, w *respWriter, _ [][]byte) { w.writeBulk([]byte(s.info())) }

func runDBSize(s *Server, _ *session, w *respWriter, _ [][]byte) { w.writeInt(int64(s.store.Len())) }

// The locked handlers below run on the connection's store thread with
// the slot mutex held (see dispatch and runExec).

// countKeys replies with how many of keys op succeeded on, not-found
// counting as zero (multi-key DEL and EXISTS).
func countKeys(w *respWriter, keys [][]byte, op func(k []byte) error) {
	var n int64
	for _, k := range keys {
		if err := op(k); err == nil {
			n++
		} else if !errors.Is(err, core.ErrNotFound) {
			w.writeError("ERR " + err.Error())
			return
		}
	}
	w.writeInt(n)
}

func runDel(_ *Server, sess *session, w *respWriter, args [][]byte) {
	countKeys(w, args[1:], sess.slot.th.Delete)
}

func runExists(_ *Server, sess *session, w *respWriter, args [][]byte) {
	th := sess.slot.th
	countKeys(w, args[1:], func(k []byte) error {
		_, err := th.Get(k)
		return err
	})
}

// runMGet is one MultiGet instead of a Get per key: one epoch entry, VS
// reads merged into extents. Values land in the connection's scratch
// slice, so steady-state MGET allocates nothing per key beyond the
// value copies themselves.
func runMGet(_ *Server, sess *session, w *respWriter, args [][]byte) {
	vals, err := sess.slot.th.MultiGetInto(args[1:], sess.vals[:0])
	sess.vals = vals
	if err != nil {
		w.writeError("ERR " + err.Error())
		return
	}
	w.writeArrayHeader(len(vals))
	for _, v := range vals {
		replyValue(w, v, nil)
	}
	sess.resetScratch()
}

func runMSet(_ *Server, sess *session, w *respWriter, args [][]byte) {
	sess.kvs = sess.kvs[:0]
	for i := 1; i < len(args); i += 2 {
		sess.kvs = append(sess.kvs, core.KV{Key: args[i], Value: args[i+1]})
	}
	err := sess.slot.th.PutBatch(sess.kvs)
	sess.resetScratch()
	replyOK(w, nil, err)
}

func runScan(_ *Server, sess *session, w *respWriter, args [][]byte) {
	count, err := strconv.Atoi(string(args[2]))
	if err != nil || count < 0 {
		w.writeError("ERR count must be a non-negative integer")
		return
	}
	var kvs []core.KV
	err = sess.slot.th.Scan(args[1], count, func(kv core.KV) bool {
		kvs = append(kvs, kv)
		return true
	})
	if err != nil {
		w.writeError("ERR " + err.Error())
		return
	}
	w.writeArrayHeader(2 * len(kvs))
	for _, kv := range kvs {
		w.writeBulk(kv.Key)
		w.writeBulk(kv.Value)
	}
}

// info renders the INFO reply: redis-style "name:value" lines backed by
// the store's observability snapshot, so everything in METRICS.md —
// including the server.* family — is visible over the wire.
func (s *Server) info() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# server\r\n")
	fmt.Fprintf(&b, "proto:RESP2\r\n")
	fmt.Fprintf(&b, "store_threads:%d\r\n", len(s.threads))
	fmt.Fprintf(&b, "connected_clients:%d\r\n", s.m.connsCur.Load())
	fmt.Fprintf(&b, "draining:%v\r\n", s.draining.Load())
	fmt.Fprintf(&b, "# keyspace\r\n")
	fmt.Fprintf(&b, "keys:%d\r\n", s.store.Len())
	fmt.Fprintf(&b, "# metrics\r\n")
	for _, m := range s.store.Metrics().Metrics {
		id := m.Name
		if len(m.Labels) > 0 {
			var parts []string
			for k, v := range m.Labels {
				parts = append(parts, k+"="+v)
			}
			sort.Strings(parts)
			id += "{" + strings.Join(parts, ",") + "}"
		}
		if m.Hist != nil {
			fmt.Fprintf(&b, "%s:count=%d,mean=%.1f,p50=%d,p99=%d,max=%d\r\n",
				id, m.Hist.Count, m.Hist.Mean, m.Hist.P50, m.Hist.P99, m.Hist.Max)
			continue
		}
		if m.Value == float64(int64(m.Value)) {
			fmt.Fprintf(&b, "%s:%d\r\n", id, int64(m.Value))
		} else {
			fmt.Fprintf(&b, "%s:%.4f\r\n", id, m.Value)
		}
	}
	return b.String()
}
