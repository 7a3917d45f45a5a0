package server_test

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/server/respclient"
)

// The model harness over the RESP wire: two connections on loopback,
// SET/GET/DEL one round trip each, MSET/MGET/SCAN for the batch ops and
// the scans, and every burst pipelined as Send×n, Flush, Receive×n.
func TestWireMatchesModel(t *testing.T) {
	model.Run(t, model.Config{Clients: 2, Keys: 200, Steps: 800}, func(t *testing.T) model.Level[core.KV, reply] {
		_, addr := start(t, server.Config{})
		return model.Level[core.KV, reply]{Name: "wire", NotFound: errNil,
			Client: func(int) model.Ops[core.KV, reply] { return wireOps(dial(t, addr)) }}
	})
}

// reply reads one pipelined reply, in the order the commands were sent.
type reply func() ([]byte, error)

func (r reply) Value() ([]byte, error) { return r() }

// errNil stands for a nil bulk or a zero count: the key is missing.
var errNil = errors.New("nil reply")

func wireOps(c *respclient.Client) model.Ops[core.KV, reply] {
	// send queues a command whose reply must be of kind want.
	send := func(want byte, args ...string) reply {
		err := c.Send(args...)
		return func() ([]byte, error) {
			var r respclient.Reply
			if err == nil {
				err = c.Flush()
			}
			if err == nil {
				r, err = c.Receive()
			}
			return value(r, err, want)
		}
	}
	return model.Ops[core.KV, reply]{
		Put: func(k, v []byte) error { _, err := send('+', "SET", string(k), string(v))(); return err },
		Get: func(k []byte) ([]byte, error) { return send('$', "GET", string(k))() },
		Del: func(k []byte) error { _, err := send(':', "DEL", string(k))(); return err },
		Scan: func(start []byte, n int, fn func(core.KV) bool) error {
			r, err := c.Do("SCAN", string(start), strconv.Itoa(n))
			for i := 0; i+1 < len(r.Elems); i += 2 {
				if !fn(core.KV{Key: []byte(r.Elems[i].Str), Value: []byte(r.Elems[i+1].Str)}) {
					break
				}
			}
			return err
		},
		PutBatch: func(kvs []core.KV) error {
			args := []string{"MSET"}
			for _, kv := range kvs {
				args = append(args, string(kv.Key), string(kv.Value))
			}
			_, err := send('+', args...)()
			return err
		},
		MultiGet: func(keys [][]byte) ([][]byte, error) {
			args := []string{"MGET"}
			for _, k := range keys {
				args = append(args, string(k))
			}
			r, err := c.Do(args...)
			vals := make([][]byte, len(r.Elems))
			for i, e := range r.Elems {
				var verr error
				if vals[i], verr = value(e, nil, '$'); verr != nil && verr != errNil {
					return nil, verr
				}
			}
			return vals, err
		},
		PutAsync: func(k, v []byte) reply { return send('+', "SET", string(k), string(v)) },
		GetAsync: func(k []byte) reply { return send('$', "GET", string(k)) },
		DelAsync: func(k []byte) reply { return send(':', "DEL", string(k)) },
	}
}

// value is what a reply of kind want says: its text, or errNil.
func value(r respclient.Reply, err error, want byte) ([]byte, error) {
	switch {
	case err != nil:
		return nil, err
	case r.Kind == '-':
		return nil, r.Err()
	case r.Kind != want:
		return nil, fmt.Errorf("%q reply %+v to a command that wants %q", r.Kind, r, want)
	case r.Nil || r.Kind == ':' && r.Int == 0:
		return nil, errNil
	}
	return []byte(r.Str), nil
}
