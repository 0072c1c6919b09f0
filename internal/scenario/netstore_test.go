package scenario

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
	"net"
	"reflect"
	"testing"
)

// startStoreServer runs an in-process result store for the test and
// returns its address plus the backing directory.
func startStoreServer(t *testing.T) (addr, dir string) {
	t.Helper()
	dir = t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeStore(ln, dir)
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), dir
}

// TestRemoteStoreColdThenWarm: a cold run fills the remote store; a second
// process (fresh local dir, dead inner backend) must serve every seed from
// the remote store, bit-identically.
func TestRemoteStoreColdThenWarm(t *testing.T) {
	addr, _ := startStoreServer(t)
	spec := cacheSpec()
	seeds := Seeds(1, 6)

	cold := &Cache{Inner: &Local{Parallel: 2}, Dir: t.TempDir(), Addr: addr}
	coldAggs := mustRun(t, &Runner{KeepPerSeed: true, Executor: cold}, []Spec{spec}, seeds)
	cold.Close()
	if s := cold.Stats(); s.Hits != 0 || s.Misses != int64(len(seeds)) || s.Outages != 0 {
		t.Errorf("cold stats %+v, want 0 hits / %d misses / 0 outages", s, len(seeds))
	}

	// A different "host": separate (empty) local dir, same store. Hits can
	// only come over the wire.
	warm := &Cache{Inner: FailExecutor("remote store missed on a warm run"), Dir: t.TempDir(), Addr: addr}
	warmAggs := mustRun(t, &Runner{KeepPerSeed: true, Executor: warm}, []Spec{spec}, seeds)
	warm.Close()
	if s := warm.Stats(); s.Hits != int64(len(seeds)) || s.Misses != 0 || s.Outages != 0 {
		t.Errorf("warm stats %+v, want %d hits / 0 misses / 0 outages", s, len(seeds))
	}
	if !reflect.DeepEqual(coldAggs[0].Metrics, warmAggs[0].Metrics) {
		t.Errorf("remote warm aggregate differs:\ncold %+v\nwarm %+v", coldAggs[0].Metrics, warmAggs[0].Metrics)
	}
	if !reflect.DeepEqual(coldAggs[0].PerSeed, warmAggs[0].PerSeed) {
		t.Errorf("remote warm per-seed results differ")
	}
}

// TestStoreOutageDegradesToLocalDir is the store-outage acceptance test:
// with the store unreachable — or answering in anything but store frames,
// like a peer still speaking the JSON framing of older builds — the run
// must complete on recomputed results, count exactly one (latched)
// outage and the misses, and leave the local fallback dir warm enough
// that a later run hits without the store.
func TestStoreOutageDegradesToLocalDir(t *testing.T) {
	for name, addr := range map[string]string{"unreachable": deadStoreAddr(t), "json peer": jsonStoreAddr(t)} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			spec := cacheSpec()
			seeds := Seeds(1, 4)
			c := &Cache{Inner: &Local{Parallel: 2}, Dir: dir, Addr: addr}
			mustRun(t, &Runner{Executor: c}, []Spec{spec}, seeds)
			c.Close()
			s := c.Stats()
			if s.Outages != 1 {
				t.Errorf("want exactly one latched store outage: %+v", s)
			}
			if s.Misses != int64(len(seeds)) {
				t.Errorf("outage run should miss (and recompute) every seed: %+v", s)
			}
			if s.WriteErrs != 0 {
				t.Errorf("outage writes must fall back to the local dir, not fail: %+v", s)
			}

			// The fallback dir absorbed the writes: a second outage run hits locally.
			again := &Cache{Inner: FailExecutor("local fallback missed"), Dir: dir, Addr: addr}
			mustRun(t, &Runner{Executor: again}, []Spec{spec}, seeds)
			again.Close()
			if s := again.Stats(); s.Hits != int64(len(seeds)) {
				t.Errorf("fallback dir not warm after outage run: %+v", s)
			}
		})
	}
}

// deadStoreAddr returns an address that refuses connections.
func deadStoreAddr(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	return ln.Addr().String()
}

// jsonStoreAddr runs a peer that answers every frame with a JSON-framed
// reply, as the store of an older build would.
func jsonStoreAddr(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				var buf []byte
				for {
					if _, err := readRawFrame(br, &buf); err != nil {
						return
					}
					conn.Write(rawFrame([]byte(`{"found":false}`)))
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// storeClient is a raw connection to a store, for driving the protocol
// frame by frame.
type storeClient struct {
	t     *testing.T
	conn  net.Conn
	br    *bufio.Reader
	fs    frameScratch
	inbuf []byte
}

func dialStore(t *testing.T, addr string) *storeClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &storeClient{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// exchange sends one request frame and returns the parsed reply, valid
// until the next exchange.
func (c *storeClient) exchange(frame []byte) storeMsg {
	c.t.Helper()
	if _, err := c.conn.Write(frame); err != nil {
		c.t.Fatal(err)
	}
	p, err := readRawFrame(c.br, &c.inbuf)
	if err != nil {
		c.t.Fatal(err)
	}
	m, err := parseStoreReply(p)
	if err != nil {
		c.t.Fatal(err)
	}
	return m
}

// rawFrame length-prefixes an arbitrary payload.
func rawFrame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestStoreRejectsEscapingKeys: the store must refuse any key that could
// leave its root.
func TestStoreRejectsEscapingKeys(t *testing.T) {
	addr, dir := startStoreServer(t)
	c := dialStore(t, addr)
	for _, key := range []string{"", "/abs/path", "../escape", "a/../../b", "a//b", "a/./b", `a\b`} {
		if m := c.exchange(c.fs.storeGetFrame(key)); m.ftype != frameStoreError {
			t.Errorf("key %q was not rejected: %+v", key, m)
		}
	}
	// And a valid key still works end to end on the same connection.
	res := Result{Name: "x", Values: map[string]float64{"v": 1}}
	if m := c.exchange(c.fs.storePutFrame("ok/entry.bin", res)); m.ftype != frameStoreOK {
		t.Fatalf("valid put rejected: %+v", m)
	}
	if _, ok := (diskStore{root: dir}).load("ok/entry.bin"); !ok {
		t.Error("valid put did not land in the store dir")
	}
}

// TestStoreUndecodablePutRejected: a put whose payload is not a valid
// encoded Result must be refused, never stored.
func TestStoreUndecodablePutRejected(t *testing.T) {
	addr, dir := startStoreServer(t)
	c := dialStore(t, addr)
	payload := appendLenBytes([]byte{frameStorePut}, "bad/entry.bin")
	if m := c.exchange(rawFrame(append(payload, "{torn"...))); m.ftype != frameStoreError {
		t.Errorf("undecodable put was accepted: %+v", m)
	}
	if _, ok := (diskStore{root: dir}).load("bad/entry.bin"); ok {
		t.Error("undecodable put landed in the store dir")
	}
}

// TestStoreBinaryRoundTripsOverWire: an entry survives the store protocol
// end to end — PUT re-encodes it to disk, GET returns bytes that decode
// bit-identically, hostile floats included — and an absent key is a plain
// miss.
func TestStoreBinaryRoundTripsOverWire(t *testing.T) {
	addr, _ := startStoreServer(t)
	c := dialStore(t, addr)

	res := Result{
		Name:  "bin",
		Table: "t",
		Values: map[string]float64{
			"nan":     math.NaN(),
			"neginf":  math.Inf(-1),
			"negzero": math.Copysign(0, -1),
		},
	}
	const key = "v1/bin-000000/seed1.bin"
	if m := c.exchange(c.fs.storeGetFrame(key)); m.ftype != frameStoreOK {
		t.Fatalf("get of an absent key = %+v, want a miss", m)
	}
	if m := c.exchange(c.fs.storePutFrame(key, res)); m.ftype != frameStoreOK {
		t.Fatalf("binary put rejected: %+v", m)
	}
	m := c.exchange(c.fs.storeGetFrame(key))
	if m.ftype != frameStoreFound {
		t.Fatalf("binary get failed: %+v", m)
	}
	got, err := DecodeResult(m.result)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != res.Name || got.Table != res.Table || len(got.Values) != len(res.Values) {
		t.Fatalf("round trip changed shape: %+v vs %+v", got, res)
	}
	for k, want := range res.Values {
		if math.Float64bits(got.Values[k]) != math.Float64bits(want) {
			t.Errorf("%s: %#x, want %#x", k, math.Float64bits(got.Values[k]), math.Float64bits(want))
		}
	}
}

// TestStoreClosesOnJSONRequest: the store speaks only binary frames. A
// JSON-framed request, as an older build's client sends, closes that
// connection — without a panic — and the store keeps serving others.
func TestStoreClosesOnJSONRequest(t *testing.T) {
	addr, _ := startStoreServer(t)
	c := dialStore(t, addr)
	if _, err := c.conn.Write(rawFrame([]byte(`{"op":"get","key":"a/b.bin"}`))); err != nil {
		t.Fatal(err)
	}
	if _, err := readRawFrame(c.br, &c.inbuf); err != io.EOF {
		t.Errorf("JSON-framed request: read = %v, want the server to close (io.EOF)", err)
	}
	if m := dialStore(t, addr).exchange(c.fs.storeGetFrame("a/b.bin")); m.ftype != frameStoreOK {
		t.Errorf("store stopped serving after a JSON request: %+v", m)
	}
}
