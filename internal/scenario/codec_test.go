package scenario

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

// TestCodecRoundTripBitExact pins the codec contract the shard protocol
// and result cache rely on: every float64 — including the values plain
// JSON cannot carry — survives encode/decode with its exact bit pattern,
// and tables round-trip byte-for-byte.
func TestCodecRoundTripBitExact(t *testing.T) {
	in := Result{
		Name:  "codec",
		Table: "line1\nµ ± ┌─┐ \"quoted\" \\backslash\ttab",
		Values: map[string]float64{
			"plain":   3.25,
			"tiny":    5e-324, // smallest denormal
			"huge":    math.MaxFloat64,
			"negzero": math.Copysign(0, -1),
			"posinf":  math.Inf(1),
			"neginf":  math.Inf(-1),
			"nan":     math.NaN(),
			"pi":      math.Pi,
		},
	}
	data, err := EncodeResult(in)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != resultMagic || data[1] != resultVersion {
		t.Fatalf("encoding header = %#x %#x, want magic %#x version %d", data[0], data[1], resultMagic, resultVersion)
	}
	out, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Table != in.Table {
		t.Errorf("name/table changed: %+v", out)
	}
	if len(out.Values) != len(in.Values) {
		t.Fatalf("value count %d, want %d", len(out.Values), len(in.Values))
	}
	for k, want := range in.Values {
		got, ok := out.Values[k]
		if !ok {
			t.Errorf("value %q missing", k)
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: bits %#x, want %#x", k, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestCodecDeterministicBytes: equal Results must encode to identical
// bytes (the cache compares freshness by file content identity across
// processes, and map iteration order must not leak in).
func TestCodecDeterministicBytes(t *testing.T) {
	mk := func() Result {
		return Result{Name: "d", Table: "t", Values: map[string]float64{
			"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6, "g": 7, "h": 8,
		}}
	}
	first, err := EncodeResult(mk())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := EncodeResult(mk())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("encoding not deterministic:\n%x\n%x", first, again)
		}
	}
}

// TestDecodeRejectsGarbage: garbage and the JSON documents older builds
// wrote are all ErrDecode — the binary codec is the only result form.
func TestDecodeRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"not json",
		`{"name":"x","values":[{"name":"v","bits":"zz"}]}`,
		`{"name":"legacy","table":"t\n","values":[{"name":"pi","bits":"400921fb54442d18","human":"3.141592653589793"}]}`,
	} {
		if _, err := DecodeResult([]byte(in)); !errors.Is(err, ErrDecode) {
			t.Errorf("DecodeResult(%q): err = %v, want ErrDecode", in, err)
		}
	}
}

// TestDecodeErrorsAreLoudAndTotal pins the codec error contract the
// supervisor's decode detector depends on: truncated encodings, version
// skew, trailing garbage, oversized length prefixes and JSON documents
// all fail with an error the caller can classify via
// errors.Is(err, ErrDecode) where the stream (not the transport) is at
// fault — and the failed decode returns the zero Result, never a partial
// one.
func TestDecodeErrorsAreLoudAndTotal(t *testing.T) {
	// A JSON document of the pre-binary form, and a non-JSON, non-binary
	// payload: ErrDecode and the zero Result.
	for _, in := range []string{
		`{"name":"x","table":"t","values":[{"name":"good","bits":"3ff0000000000000"}]}`,
		"chaos! not json",
	} {
		res, err := DecodeResult([]byte(in))
		if !errors.Is(err, ErrDecode) {
			t.Errorf("DecodeResult(%q): err = %v, want ErrDecode", in, err)
		}
		if res.Name != "" || res.Table != "" || res.Values != nil {
			t.Errorf("partial Result leaked from failed decode of %q: %+v", in, res)
		}
	}

	// Every proper prefix of a binary encoding is a truncation: ErrDecode,
	// zero Result, no panic.
	enc, err := EncodeResult(Result{Name: "n", Table: "t", Values: map[string]float64{
		"a": 1, "nan": math.NaN(), "inf": math.Inf(1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(enc); i++ {
		res, err := DecodeResult(enc[:i])
		if !errors.Is(err, ErrDecode) {
			t.Fatalf("prefix %d/%d: err = %v, want ErrDecode", i, len(enc), err)
		}
		if res.Name != "" || res.Table != "" || res.Values != nil {
			t.Fatalf("prefix %d/%d leaked a partial Result: %+v", i, len(enc), res)
		}
	}

	// A future version byte: ErrDecode naming the version, not a misparse.
	skew := append([]byte(nil), enc...)
	skew[1] = resultVersion + 1
	if _, err := DecodeResult(skew); !errors.Is(err, ErrDecode) || !strings.Contains(err.Error(), "version") {
		t.Errorf("version skew: err = %v, want ErrDecode naming the version", err)
	}

	// Trailing bytes after the last value: the encoding is length-framed by
	// its frame, so slack means corruption.
	if _, err := DecodeResult(append(append([]byte(nil), enc...), 0)); !errors.Is(err, ErrDecode) {
		t.Errorf("trailing byte: err = %v, want ErrDecode", err)
	}

	// Oversized length prefix: ErrDecode from the frame reader (the stream
	// is corrupt, not merely closed).
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], maxFrame+1)
	var buf []byte
	if _, err := readRawFrame(bytes.NewReader(huge[:]), &buf); !errors.Is(err, ErrDecode) {
		t.Errorf("oversized prefix: err = %v, want ErrDecode", err)
	}

	// Well-framed garbage payload (what the chaos corrupt mode emits): the
	// frame reads fine, the message parse fails with ErrDecode.
	var stream bytes.Buffer
	payload := []byte("chaos! not a frame {{{")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	stream.Write(hdr[:])
	stream.Write(payload)
	p, err := readRawFrame(&stream, &buf)
	if err != nil {
		t.Fatalf("well-framed garbage must read as a frame: %v", err)
	}
	if _, err := parseWireMsg(p); !errors.Is(err, ErrDecode) {
		t.Errorf("garbage payload: err = %v, want ErrDecode", err)
	}

	// Truncation inside a frame is a transport fault, not stream corruption:
	// unexpected EOF, and NOT ErrDecode (the supervisor classifies it as a
	// process death).
	stream.Reset()
	binary.BigEndian.PutUint32(hdr[:], 1024)
	stream.Write(hdr[:])
	stream.WriteString("short")
	_, err = readRawFrame(&stream, &buf)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame: err = %v, want unexpected EOF", err)
	}
	if errors.Is(err, ErrDecode) {
		t.Error("truncated frame misclassified as stream corruption")
	}
}

// TestFrameRoundTrip checks the binary framing layer: request frames,
// per-seed response frames, hello/heartbeat, clean EOF at a boundary vs.
// truncation inside a frame — plus the result-store frames of both
// directions.
func TestFrameRoundTrip(t *testing.T) {
	var fs frameScratch
	var stream bytes.Buffer
	stream.Write(fs.helloFrame())
	stream.Write(fs.heartbeatFrame())
	res := Result{Name: "r", Table: "t", Values: map[string]float64{"nan": math.NaN(), "v": 2.5}}
	stream.Write(fs.resultFrame([]byte("spec-a"), 7, 3, res))
	stream.Write(fs.errorFrame([]byte("spec-b"), -7, 4, "boom"))

	var buf []byte
	read := func() wireMsg {
		t.Helper()
		p, err := readRawFrame(&stream, &buf)
		if err != nil {
			t.Fatal(err)
		}
		m, err := parseWireMsg(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := read(); m.ftype != frameHello || m.version != protoVersion {
		t.Fatalf("hello = %+v", m)
	}
	if m := read(); m.ftype != frameHeartbeat {
		t.Fatalf("heartbeat = %+v", m)
	}
	m := read()
	if m.ftype != frameResult || string(m.spec) != "spec-a" || m.seed != 7 || m.epoch != 3 {
		t.Fatalf("result frame = %+v", m)
	}
	got, err := DecodeResult(m.result)
	if err != nil || got.Name != "r" || !math.IsNaN(got.Values["nan"]) || got.Values["v"] != 2.5 {
		t.Fatalf("embedded result = %+v / %v", got, err)
	}
	m = read()
	if m.ftype != frameError || string(m.spec) != "spec-b" || m.seed != -7 || m.epoch != 4 || string(m.errMsg) != "boom" {
		t.Fatalf("error frame = %+v", m)
	}
	if _, err := readRawFrame(&stream, &buf); err != io.EOF {
		t.Errorf("end of stream: %v, want io.EOF", err)
	}

	// Request frames: the chunk-granular coordinator→worker direction.
	seeds := []int64{1, -7, 1 << 40}
	full := append([]byte(nil), fs.requestFrame("spec-c", seeds, 9)...)
	req, err := parseWireRequest(full[4:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(req.spec) != "spec-c" || req.epoch != 9 || len(req.seeds) != 3 ||
		req.seeds[0] != 1 || req.seeds[1] != -7 || req.seeds[2] != 1<<40 {
		t.Fatalf("request = %+v", req)
	}
	for i := 1; i < len(full)-4; i++ {
		if _, err := parseWireRequest(full[4:4+i], nil); !errors.Is(err, ErrDecode) {
			t.Fatalf("truncated request %d: err = %v, want ErrDecode", i, err)
		}
	}

	// A stream that loses its tail mid-frame: unexpected EOF, not io.EOF.
	short := bytes.NewReader(full[:len(full)-2])
	if _, err := readRawFrame(short, &buf); err == nil || err == io.EOF {
		t.Errorf("truncated frame: %v, want unexpected-EOF error", err)
	}

	// Store frames, both directions. Every proper prefix of a payload fails
	// with ErrDecode — from the frame parser, or from the embedded Result.
	type storeCase struct {
		frame []byte
		parse func([]byte) (storeMsg, error)
		check func(storeMsg) bool
	}
	own := func(frame []byte) []byte { return append([]byte(nil), frame...) } // fs reuses its buffer
	hasResult := func(m storeMsg) bool {
		got, err := DecodeResult(m.result)
		return err == nil && got.Name == "r" && math.IsNaN(got.Values["nan"])
	}
	for _, c := range []storeCase{
		{own(fs.storeGetFrame("a/b.bin")), parseStoreRequest, func(m storeMsg) bool {
			return m.ftype == frameStoreGet && string(m.key) == "a/b.bin" && m.result == nil
		}},
		{own(fs.storePutFrame("a/c.bin", res)), parseStoreRequest, func(m storeMsg) bool {
			return m.ftype == frameStorePut && string(m.key) == "a/c.bin" && hasResult(m)
		}},
		{own(fs.storeFoundFrame(res)), parseStoreReply, func(m storeMsg) bool {
			return m.ftype == frameStoreFound && hasResult(m)
		}},
		{own(fs.storeOKFrame()), parseStoreReply, func(m storeMsg) bool {
			return m.ftype == frameStoreOK && m.result == nil && m.errMsg == nil
		}},
		{own(fs.storeErrorFrame("nope")), parseStoreReply, func(m storeMsg) bool {
			return m.ftype == frameStoreError && string(m.errMsg) == "nope"
		}},
	} {
		p, err := readRawFrame(bytes.NewReader(c.frame), &buf)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := c.parse(p); err != nil || !c.check(m) {
			t.Fatalf("store frame %#x = %+v, %v", p[0], m, err)
		}
		for i := 0; i < len(p); i++ {
			m, err := c.parse(p[:i])
			if err == nil && m.result != nil {
				_, err = DecodeResult(m.result)
			}
			if !errors.Is(err, ErrDecode) {
				t.Fatalf("store frame %#x truncated to %d: err = %v, want ErrDecode", p[0], i, err)
			}
		}
	}
	// A frame of one direction is not a message of the other.
	if _, err := parseStoreReply(fs.storeGetFrame("k")[4:]); !errors.Is(err, ErrDecode) {
		t.Errorf("get frame parsed as a reply: %v", err)
	}
	if _, err := parseStoreRequest(fs.storeOKFrame()[4:]); !errors.Is(err, ErrDecode) {
		t.Errorf("ok frame parsed as a request: %v", err)
	}
}

// newTestConnCore wraps a canned byte stream as a coordinator-side
// connection core, for driving recv against synthetic worker output.
func newTestConnCore(stream []byte) *connCore {
	return &connCore{
		br:       bufio.NewReader(bytes.NewReader(stream)),
		tag:      "test",
		stales:   new(atomic.Int64),
		sent:     new(atomic.Int64),
		recvd:    new(atomic.Int64),
		classify: func(error) failKind { return failExit },
		dec:      newResultDecoder(),
	}
}

// TestRecvHelloNegotiation pins the version handshake: a worker
// announcing a different protocol version is a decode fault (the
// supervisor kills and retries elsewhere, never misparses), as is any
// response arriving before the hello.
func TestRecvHelloNegotiation(t *testing.T) {
	var fs frameScratch
	res := Result{Name: "r", Values: map[string]float64{"v": 1}}

	// Healthy session: hello, heartbeat noise, then the response.
	var ok bytes.Buffer
	ok.Write(fs.helloFrame())
	ok.Write(fs.heartbeatFrame())
	ok.Write(fs.resultFrame([]byte("s"), 1, 10, res))
	c := newTestConnCore(ok.Bytes())
	got, kind, err := c.recv("s", 1, 10)
	if err != nil || kind != 0 || got.Values["v"] != 1 {
		t.Fatalf("healthy recv = %+v, %v, %v", got, kind, err)
	}

	// Version skew: ErrDecode, classified failDecode.
	bad := append([]byte(nil), fs.helloFrame()...)
	bad[len(bad)-1] = protoVersion + 1
	c = newTestConnCore(bad)
	if _, kind, err := c.recv("s", 1, 10); kind != failDecode || !errors.Is(err, ErrDecode) {
		t.Errorf("version skew: kind %v err %v, want failDecode/ErrDecode", kind, err)
	}

	// A response with no hello first: same fault class.
	c = newTestConnCore(append([]byte(nil), fs.resultFrame([]byte("s"), 1, 10, res)...))
	if _, kind, err := c.recv("s", 1, 10); kind != failDecode || !errors.Is(err, ErrDecode) {
		t.Errorf("response before hello: kind %v err %v, want failDecode/ErrDecode", kind, err)
	}
}

// TestRecvSkipsStaleFrames: frames whose (epoch, spec, seed) does not
// match the expected response are counted and skipped — the zombie-replay
// defense — and the live exchange still completes.
func TestRecvSkipsStaleFrames(t *testing.T) {
	var fs frameScratch
	res := Result{Name: "r", Values: map[string]float64{"v": 42}}
	var stream bytes.Buffer
	stream.Write(fs.helloFrame())
	stream.Write(fs.resultFrame([]byte("s"), 1, 9, res))  // stale epoch
	stream.Write(fs.errorFrame([]byte("s"), 2, 10, "x"))  // stale seed
	stream.Write(fs.resultFrame([]byte("t"), 1, 10, res)) // stale spec
	stream.Write(fs.resultFrame([]byte("s"), 1, 10, res)) // the live one
	c := newTestConnCore(stream.Bytes())
	got, kind, err := c.recv("s", 1, 10)
	if err != nil || kind != 0 || got.Values["v"] != 42 {
		t.Fatalf("recv = %+v, %v, %v", got, kind, err)
	}
	if n := c.stales.Load(); n != 3 {
		t.Errorf("stale frames counted = %d, want 3", n)
	}
}
