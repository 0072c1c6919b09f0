package scenario

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The worker side of the shard protocol, shared by both transports. A
// stdio worker is the same binary as the parent, re-executed with the
// hidden -worker flag: it parses the same command line (so ad-hoc specs
// built from CLI parameters are reconstructed identically), then serves
// one session over stdin/stdout until EOF. A TCP worker (ServeNet) serves
// one session per accepted connection. Every session opens with a hello
// frame announcing protoVersion — subprocess workers are normally the same
// build, but the TCP transport can connect across builds, so the version
// byte turns a protocol skew into a loud decode fault instead of a
// misparse.
//
// One request frame carries a whole seed chunk; the worker streams one
// result or error frame back per seed, each echoing the request's (epoch,
// spec, seed) identity. The coordinator discards any response whose
// identity does not match a lease in flight — so a zombie or partitioned
// worker replaying a stale chunk after its lease was reassigned can never
// double-emit a seed.

// ServeWorker runs the shard worker loop over r/w: read a chunk request,
// resolve the spec (extra specs take precedence over the registry,
// mirroring how macbench/hotspotsim layer their flag-built specs over the
// catalogue), execute each seed, stream one response frame per seed. It
// returns nil on clean EOF.
//
// If the REPRO_CHAOS environment variable is set (the parent Shard
// exports its -chaos schedule there), the worker misbehaves on the
// configured schedule — the fault-injection half of the supervision
// layer. Only the process verbs apply; a malformed schedule is a startup
// error.
//
// Nothing but protocol frames may be written to w — a worker whose
// experiments print to stdout would corrupt the stream — which holds
// because experiments return rendered tables instead of printing them.
func ServeWorker(r io.Reader, w io.Writer, extra ...Spec) error {
	chaos, err := ChaosFromEnv()
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	gen, _ := strconv.Atoi(os.Getenv(workerGenEnv)) // labels chaos log lines only; unset reads as 0
	if err := serveSession(r, w, chaos.processVerbs(), specIndex(extra), 0, os.Stderr, gen); err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	return nil
}

// serveSession is the one worker session loop behind both transports:
// hello first, then chunk requests in, per-seed responses (and, when hb >
// 0, heartbeats) out. Every frame goes out unbuffered in a single Write
// under a write mutex, so a heartbeat can never split a response frame
// and the coordinator's per-frame read deadline times the gap between
// responses, not a buffered chunk behind one slow seed. The loop
// holds every chaos hook; the caller masks chaos down to the verbs its
// transport can express, so that value is the only difference between a
// stdio and a TCP session. Chaos triggers count executed seeds, not
// frames, so a schedule keeps its meaning whatever the chunk size. It
// returns nil on clean EOF or a chaos-dropped connection.
func serveSession(r io.Reader, w io.Writer, chaos Chaos, byName map[string]Spec, hb time.Duration, logw io.Writer, gen int) error {
	var wmu sync.Mutex
	write := func(frame []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		if _, err := w.Write(frame); err != nil {
			return fmt.Errorf("write frame: %w", err)
		}
		return nil
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(logw, "chaos: "+format+" (gen %d)\n", append(args, gen)...)
	}
	var fs frameScratch
	if err := write(fs.helloFrame()); err != nil {
		return err
	}
	var hbOff atomic.Bool
	if hb > 0 {
		hbStop := make(chan struct{})
		defer close(hbStop)
		hbFrame := (&frameScratch{}).heartbeatFrame() // own buffer: never races fs
		go func() {
			t := time.NewTicker(hb)
			defer t.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-t.C:
					if !hbOff.Load() && write(hbFrame) != nil {
						return
					}
				}
			}
		}()
	}
	br := bufio.NewReader(r)
	var inbuf []byte
	var seeds []int64
	var prev []byte // copy of the previous response frame, for replay chaos
	blackholed := false
	n := 0 // executed-seed counter: the chaos schedule's clock
	for {
		payload, err := readRawFrame(br, &inbuf)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("read request: %w", err)
		}
		req, err := parseWireRequest(payload, seeds[:0])
		if err != nil {
			return fmt.Errorf("read request: %w", err)
		}
		seeds = req.seeds
		if blackholed {
			continue // swallow everything; the coordinator's deadline reaps us
		}
		spec, ok := byName[string(req.spec)]
		if !ok {
			spec, ok = Lookup(string(req.spec))
		}
		for _, seed := range req.seeds {
			n++
			// Pre-response faults: the coordinator sees a slow, dead, hung,
			// dropped or partitioned worker.
			if chaos.SlowLink > 0 {
				time.Sleep(chaos.SlowLink)
			}
			if chaos.DelayEvery > 0 && n%chaos.DelayEvery == 0 {
				time.Sleep(chaos.Delay)
			}
			if chaos.CrashAfter > 0 && n == chaos.CrashAfter {
				logf("crashing on seed %d", n)
				os.Exit(3)
			}
			if chaos.HangAfter > 0 && n == chaos.HangAfter {
				logf("hanging on seed %d", n)
				time.Sleep(chaos.HangFor)
			}
			if chaos.DropConnAfter > 0 && n == chaos.DropConnAfter {
				logf("dropping connection on seed %d", n)
				return nil
			}
			if chaos.BlackholeAfter > 0 && n == chaos.BlackholeAfter {
				logf("blackholing connection from seed %d", n)
				hbOff.Store(true)
				blackholed = true
				break // the rest of the chunk vanishes too
			}
			var frame []byte
			if !ok {
				frame = fs.errorFrame(req.spec, seed, req.epoch, fmt.Sprintf("unknown experiment %q", req.spec))
			} else if res, err := executeSafe(spec, seed); err != nil {
				frame = fs.errorFrame(req.spec, seed, req.epoch, err.Error())
			} else {
				frame = fs.resultFrame(req.spec, seed, req.epoch, res)
			}
			// Response-stream faults: the coordinator's decoder and stale-frame
			// matching, not its liveness detectors, must catch these.
			if chaos.TruncateAfter > 0 && n == chaos.TruncateAfter {
				logf("truncating response %d", n)
				write(truncatedFrame)
				os.Exit(3)
			}
			if chaos.CorruptAfter > 0 && n == chaos.CorruptAfter {
				logf("corrupting response %d", n)
				frame = corruptFrame
			}
			if chaos.ReplayAfter > 0 && n == chaos.ReplayAfter && prev != nil {
				// A stale frame ahead of the real response: the coordinator must
				// discard it on (epoch, spec, seed) and still complete cleanly.
				logf("replaying stale frame before response %d", n)
				if err := write(prev); err != nil {
					return err
				}
			}
			if err := write(frame); err != nil {
				return err
			}
			if chaos.ReplayAfter > 0 {
				prev = append(prev[:0], frame...)
			}
		}
	}
}

// truncatedFrame is a header promising more payload than follows, so the
// coordinator's frame reader fails with an unexpected EOF once the worker
// exits.
var truncatedFrame = append(binary.BigEndian.AppendUint32(nil, 1024), "chaos"...)

// corruptFrame is a well-framed payload that is not a protocol message
// ('c' is no frame type), so the coordinator's message parse fails with
// ErrDecode while the stream framing stays intact.
var corruptFrame = append(binary.BigEndian.AppendUint32(nil, uint32(len(corruptPayload))), corruptPayload...)

const corruptPayload = "chaos! not a frame {{{"

// specIndex builds the extra-spec precedence map worker sessions resolve
// requests against.
func specIndex(extra []Spec) map[string]Spec {
	byName := make(map[string]Spec, len(extra))
	for _, s := range extra {
		byName[s.Name] = s
	}
	return byName
}

// executeSafe converts a panicking experiment into a protocol error, so
// the parent reports the real failure instead of an opaque broken pipe.
func executeSafe(spec Spec, seed int64) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s seed %d panicked: %v", spec.Name, seed, p)
		}
	}()
	return spec.Execute(seed), nil
}
