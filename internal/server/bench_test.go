package server_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dstore/internal/client"
	"dstore/internal/server"
	"dstore/internal/wire"
)

// End-to-end allocation benchmarks for the server's per-request hot path
// (run with -benchmem): one pipelined client issuing PUT or GET frames
// against the in-memory fake backend, so allocs/op is dominated by framing
// and dispatch, not store work.

// benchListen serves the fake backend on a loopback listener.
func benchListen(b *testing.B) (addr string, stop func()) {
	b.Helper()
	srv := server.New(newFake(), server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
		<-done
	}
}

func benchServer(b *testing.B) (*rawBenchConn, func()) {
	b.Helper()
	addr, stop := benchListen(b)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	c := &rawBenchConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	return c, func() {
		nc.Close() //nolint:errcheck
		stop()
	}
}

type rawBenchConn struct {
	nc    net.Conn
	br    *bufio.Reader
	frame []byte
}

func (c *rawBenchConn) roundTrip(b *testing.B, req *wire.Request) wire.Response {
	var err error
	c.frame, err = wire.AppendRequest(c.frame[:0], req)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.nc.Write(c.frame); err != nil {
		b.Fatal(err)
	}
	payload, err := wire.ReadFrame(c.br, 0)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		b.Fatal(err)
	}
	return resp
}

func BenchmarkServerPut(b *testing.B) {
	c, cleanup := benchServer(b)
	defer cleanup()
	req := &wire.Request{Op: wire.OpPut, Key: "bench", Value: benchValue(4096)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ID = uint64(i)
		if resp := c.roundTrip(b, req); resp.Status != wire.StatusOK {
			b.Fatalf("put: %v %s", resp.Status, resp.Msg)
		}
	}
}

func BenchmarkServerGet(b *testing.B) {
	c, cleanup := benchServer(b)
	defer cleanup()
	put := &wire.Request{ID: 1, Op: wire.OpPut, Key: "bench", Value: benchValue(4096)}
	if resp := c.roundTrip(b, put); resp.Status != wire.StatusOK {
		b.Fatalf("seed put: %v %s", resp.Status, resp.Msg)
	}
	req := &wire.Request{Op: wire.OpGet, Key: "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ID = uint64(i)
		if resp := c.roundTrip(b, req); resp.Status != wire.StatusOK {
			b.Fatalf("get: %v %s", resp.Status, resp.Msg)
		}
	}
}

// benchKV is the whole networked call as the benchmark harness makes it: the
// pooled client.KV (two connections, the default) against the fake backend,
// 4 KiB values. Every caller makes b.N calls, so ns/op is one call's latency
// with that many callers in flight, and allocs/op covers client and server.
func benchKV(b *testing.B, get bool) {
	for _, callers := range []int{1, 2} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			addr, stop := benchListen(b)
			defer stop()
			c, err := client.Dial(client.Config{Addr: addr})
			if err != nil {
				b.Fatal(err)
			}
			kv := client.NewKV(c, 0)
			defer kv.Close() //nolint:errcheck
			val := benchValue(4096)
			if err := kv.Put("bench", val); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < callers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var buf []byte
					for i := 0; i < b.N; i++ {
						var err error
						if get {
							buf, err = kv.Get("bench", buf[:0])
						} else {
							err = kv.Put("bench", val)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

func BenchmarkKVPut(b *testing.B) { benchKV(b, false) }
func BenchmarkKVGet(b *testing.B) { benchKV(b, true) }

func benchValue(n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(i)
	}
	return v
}
