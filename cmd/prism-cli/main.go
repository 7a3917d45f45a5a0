// Command prism-cli is an interactive shell over the Prism public API —
// a quick way to poke at the store, watch its internal statistics, and
// exercise crash/recovery by hand.
//
// With -connect addr it speaks to a running prism-server over RESP2
// instead of opening an in-process store; the same put/get/del/scan
// commands work, any other input is sent as a raw RESP command (so
// "mget a b", "info", "dbsize" all work too). "pipe cmd ; cmd ; ..."
// sends a burst in one flush — the pipelined path the server coalesces
// through its async submission pipeline.
//
// Commands (local mode):
//
//	put <key> <value>      store a value
//	get <key>              read a value
//	del <key>              delete a key
//	scan <start> <n>       range scan
//	stats                  engine counters (SVC hits, reclaims, GC, ...)
//	metrics [name...]      obs snapshot (all metrics, or just the named
//	                       ones); 'metrics -json' dumps METRICS.md JSON
//	crash                  simulate power failure + recovery
//	help | quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/server/respclient"
)

func main() {
	connect := flag.String("connect", "", "RESP server address (host:port); empty = in-process store")
	flag.Parse()

	if *connect != "" {
		if err := connectedREPL(*connect); err != nil {
			fmt.Fprintln(os.Stderr, "connect:", err)
			os.Exit(1)
		}
		return
	}
	localREPL()
}

// connectedREPL drives a remote prism-server through the RESP client.
func connectedREPL(addr string) error {
	c, err := respclient.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Do("PING"); err != nil {
		return fmt.Errorf("ping: %w", err)
	}
	fmt.Printf("prism-cli — connected to %s; type 'help' for commands\n", addr)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("prism> ")
		if !sc.Scan() {
			return nil
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "help":
			fmt.Println("put <k> <v> | get <k> | del <k> | scan <start> <n> | ping | info | dbsize | quit")
			fmt.Println("pipe <cmd> ; <cmd> ; ...   send a pipelined burst in one flush")
			fmt.Println("anything else is sent as a raw RESP command (e.g. 'mget a b')")
			continue
		case "quit", "exit":
			c.Do("QUIT")
			return nil
		case "pipe":
			if err := pipeBurst(c, fields[1:]); err != nil {
				fmt.Println("error:", err)
			}
			continue
		case "put":
			fields[0] = "SET"
		case "del":
			fields[0] = "DEL"
		}
		reply, err := c.Do(fields...)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		printReply(reply, "")
	}
}

// pipeBurst sends semicolon-separated commands as one pipelined burst —
// all queued, one flush, replies read back in order — so the server's
// async coalescing path is exercisable by hand:
//
//	prism> pipe put a 1 ; put b 2 ; get a ; get b
func pipeBurst(c *respclient.Client, fields []string) error {
	var cmds [][]string
	cur := []string{}
	for _, f := range fields {
		if f == ";" {
			if len(cur) > 0 {
				cmds = append(cmds, cur)
				cur = []string{}
			}
			continue
		}
		cur = append(cur, f)
	}
	if len(cur) > 0 {
		cmds = append(cmds, cur)
	}
	if len(cmds) == 0 {
		return fmt.Errorf("usage: pipe <cmd> ; <cmd> ; ...")
	}
	for _, cmd := range cmds {
		switch cmd[0] {
		case "put":
			cmd[0] = "SET"
		case "del":
			cmd[0] = "DEL"
		}
		if err := c.Send(cmd...); err != nil {
			return err
		}
	}
	if err := c.Flush(); err != nil {
		return err
	}
	for i := range cmds {
		r, err := c.Receive()
		if err != nil {
			return err
		}
		fmt.Printf("%d) ", i+1)
		printReply(r, "")
	}
	return nil
}

// printReply renders a RESP reply the way redis-cli does, nested arrays
// indented.
func printReply(r respclient.Reply, indent string) {
	switch {
	case r.Nil:
		fmt.Println(indent + "(nil)")
	case r.Kind == '+':
		fmt.Println(indent + r.Str)
	case r.Kind == ':':
		fmt.Printf("%s(integer) %d\n", indent, r.Int)
	case r.Kind == '$':
		fmt.Printf("%s%q\n", indent, r.Str)
	case r.Kind == '*':
		if len(r.Elems) == 0 {
			fmt.Println(indent + "(empty array)")
			return
		}
		for i, e := range r.Elems {
			fmt.Printf("%s%d) ", indent, i+1)
			printReply(e, "")
		}
	}
}

// localREPL is the original in-process mode.
func localREPL() {
	store, err := prism.Open(prism.Options{
		NumThreads:        1,
		PWBBytesPerThread: 1 << 20,
		HSITCapacity:      1 << 18,
		NumSSDs:           2,
		SSDBytes:          64 << 20,
		SVCBytes:          8 << 20,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer store.Close()
	t := store.Thread(0)

	fmt.Println("prism-cli — type 'help' for commands")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("prism> ")
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "put":
			if len(fields) != 3 {
				fmt.Println("usage: put <key> <value>")
				continue
			}
			if err := t.Put([]byte(fields[1]), []byte(fields[2])); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				continue
			}
			v, err := t.Get([]byte(fields[1]))
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("%q\n", v)
			}
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del <key>")
				continue
			}
			if err := t.Delete([]byte(fields[1])); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
		case "scan":
			if len(fields) != 3 {
				fmt.Println("usage: scan <start> <count>")
				continue
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				fmt.Println("count must be a number")
				continue
			}
			err = t.Scan([]byte(fields[1]), n, func(kv prism.KV) bool {
				fmt.Printf("  %s = %q\n", kv.Key, kv.Value)
				return true
			})
			if err != nil {
				fmt.Println("error:", err)
			}
		case "stats":
			s := store.Stats()
			fmt.Printf("ops: puts=%d gets=%d deletes=%d scans=%d\n", s.Puts, s.Gets, s.Deletes, s.Scans)
			fmt.Printf("reads: svcHits=%d pwbHits=%d vsReads=%d\n", s.SVCHits, s.PWBHits, s.VSReads)
			fmt.Printf("svc: entries=%d evictions=%d reclaimAdmits=%d reclaimAdmitSkips=%d scanDeferred=%d\n", s.SVC.Entries, s.SVC.Evictions, s.ReclaimAdmits, s.ReclaimAdmitSkips, s.ScanDeferred)
			fmt.Printf("writes: reclaims=%d migrated=%d stalled=%d ringFull=%d\n", s.Reclaims, s.PWBLiveMigrated, s.PutsStalled, s.PutStalls)
			fmt.Printf("value storage: chunksWritten=%d gcRuns=%d free=%d\n", s.VS.ChunksWritten, s.VS.GCRuns, s.VS.FreeChunks)
			fmt.Printf("nvm space: index=%dB hsit=%dB\n", s.IndexSpaceBytes, s.HSITSpaceBytes)
		case "metrics", ".metrics":
			snap := store.Metrics()
			if len(fields) > 1 && fields[1] == "-json" {
				fmt.Println(snap.JSON())
				continue
			}
			if len(fields) > 1 {
				// Filter to the named metrics (exact names, see METRICS.md).
				want := map[string]bool{}
				for _, n := range fields[1:] {
					want[n] = true
				}
				var keep prism.Metrics
				for _, m := range snap.Metrics {
					if want[m.Name] {
						keep.Metrics = append(keep.Metrics, m)
					}
				}
				if len(keep.Metrics) == 0 {
					fmt.Println("no such metric; 'metrics' lists all (see METRICS.md)")
					continue
				}
				snap = keep
			}
			fmt.Print(snap.Text())
		case "crash":
			fmt.Println("simulating power failure...")
			store.Crash()
			rep, err := store.Recover()
			if err != nil {
				fmt.Println("recovery failed:", err)
				return
			}
			fmt.Printf("recovered %d keys (%d lost, %d drained from PWB) in %.2f virtual ms\n",
				rep.LiveKeys, rep.LostKeys, rep.PWBValuesDrained, float64(rep.VirtualNS)/1e6)
		case "help":
			fmt.Println("put <k> <v> | get <k> | del <k> | scan <start> <n> | stats | metrics [name...|-json] | crash | quit")
		case "quit", "exit":
			return
		default:
			fmt.Println("unknown command; try 'help'")
		}
	}
}
