package scenario

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The shared remote result store: cache.go's content-addressed entry
// space lifted onto TCP so a whole worker fleet fills one cache. The
// protocol is GET/PUT in the same binary frames the shard workers speak
// (frameStore* in codec.go): one request frame, one reply frame. Keys are
// the same entryRel paths the local layout uses (code-version digest and
// all), so remote entries are exactly as collision-safe and
// staleness-safe as local ones, and a store directory is interchangeable
// with a cache directory.

// storeTimeout bounds one store operation end to end (dial, frame write,
// frame read). The store is an optimization: a slow store is an outage,
// and outages degrade to the local dir rather than stall the sweep.
const storeTimeout = 5 * time.Second

// ServeStore serves the result-store protocol on ln, backed by dir (the
// same on-disk layout as a local Cache), until the listener closes. Every
// put is decoded and atomically re-encoded to disk, so a malicious or
// torn payload can never become a stored entry; every key is validated
// against path escapes.
func ServeStore(ln net.Listener, dir string) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("store: accept: %w", err)
		}
		go serveStoreConn(conn, diskStore{root: dir})
	}
}

// ListenAndServeStore listens on addr and serves the result store — the
// body of the -serve-store flag.
func ListenAndServeStore(addr, dir string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fmt.Fprintf(os.Stderr, "store: serving %s on %s\n", dir, ln.Addr())
	return ServeStore(ln, dir)
}

// serveStoreConn answers store requests until the client closes the
// connection or sends a frame that is not a store request.
func serveStoreConn(conn net.Conn, disk diskStore) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	var inbuf []byte
	var fs frameScratch
	for {
		payload, err := readRawFrame(br, &inbuf)
		if err != nil {
			return
		}
		req, err := parseStoreRequest(payload)
		if err != nil {
			return
		}
		key := string(req.key)
		reply := fs.storeOKFrame()
		switch {
		case !validStoreKey(key):
			reply = fs.storeErrorFrame(fmt.Sprintf("bad key %q", key))
		case req.ftype == frameStoreGet:
			if res, ok := disk.load(key); ok {
				reply = fs.storeFoundFrame(res)
			}
		default: // frameStorePut
			res, err := DecodeResult(req.result)
			if err == nil {
				err = disk.store(key, res)
			}
			if err != nil {
				reply = fs.storeErrorFrame(err.Error())
			}
		}
		if _, err := conn.Write(reply); err != nil {
			return
		}
	}
}

// validStoreKey admits exactly the entryRel shape: a relative
// slash-separated path with no empty, ".", ".." or backslashed segments —
// so no request can read or write outside the store root.
func validStoreKey(key string) bool {
	if key == "" || path.IsAbs(key) || strings.Contains(key, "\\") {
		return false
	}
	for _, seg := range strings.Split(key, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return false
		}
	}
	return true
}

// remoteStore is the client side: an entryStore over one lazily dialed,
// mutex-serialized connection. The first transport failure — a malformed
// reply included — latches the store down for the rest of the process,
// counted as an outage, and every subsequent operation goes to the local
// fallback dir, so a store outage costs hits, never correctness and never
// a stalled sweep.
type remoteStore struct {
	addr     string
	fallback diskStore
	outages  *atomic.Int64

	mu    sync.Mutex
	conn  net.Conn
	br    *bufio.Reader
	fs    frameScratch
	inbuf []byte
	dec   *resultDecoder
	down  bool
}

func (r *remoteStore) load(rel string) (Result, bool) {
	r.mu.Lock()
	reply, ok := r.exchange(r.fs.storeGetFrame(rel))
	var res Result
	// A miss, a refused key and a corrupt entry are all misses, mirroring
	// diskStore.
	found := ok && reply.ftype == frameStoreFound && r.dec.decode(reply.result, &res, false) == nil
	r.mu.Unlock()
	if !ok {
		return r.fallback.load(rel)
	}
	return res, found
}

func (r *remoteStore) store(rel string, res Result) error {
	r.mu.Lock()
	reply, ok := r.exchange(r.fs.storePutFrame(rel, res))
	var err error
	if ok && reply.ftype == frameStoreError {
		err = fmt.Errorf("store: %s", reply.errMsg)
	}
	r.mu.Unlock()
	if !ok {
		return r.fallback.store(rel, res)
	}
	return err
}

// exchange performs one store round trip with r.mu held; the reply
// aliases r.inbuf until the next exchange. ok=false means the store is
// (now) down and the caller must use the fallback.
func (r *remoteStore) exchange(frame []byte) (storeMsg, bool) {
	if r.down {
		return storeMsg{}, false
	}
	if r.conn == nil {
		conn, err := net.DialTimeout("tcp", r.addr, storeTimeout)
		if err != nil {
			r.fail(err)
			return storeMsg{}, false
		}
		r.conn, r.br = conn, bufio.NewReader(conn)
	}
	r.conn.SetDeadline(time.Now().Add(storeTimeout))
	if _, err := r.conn.Write(frame); err != nil {
		r.fail(err)
		return storeMsg{}, false
	}
	payload, err := readRawFrame(r.br, &r.inbuf)
	if err == nil {
		var reply storeMsg
		if reply, err = parseStoreReply(payload); err == nil {
			return reply, true
		}
	}
	r.fail(err)
	return storeMsg{}, false
}

// fail latches the store down after a transport error.
func (r *remoteStore) fail(err error) {
	r.down = true
	r.outages.Add(1)
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	fmt.Fprintf(os.Stderr, "scenario: result store %s unreachable, degrading to local cache dir: %v\n", r.addr, err)
}

func (r *remoteStore) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
}
