package faults

// This file extends the deterministic fault injector from the simulated
// tick network to real sockets: a net.Conn wrapper that injects the same
// class of faults — delays, connection kills mid-stream, and byte
// corruption — on live TCP connections.  It exists so the network layer
// (internal/client, internal/server, internal/wire) can be tested against
// misbehaving transports with reproducible schedules, the same way the
// simulated paths are tested against Network.

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// ConnScript scripts the faults injected into one wrapped connection.
// The zero value injects nothing.
type ConnScript struct {
	// Seed drives the corruption coin flips; same seed, same flips.
	Seed int64
	// ReadDelay / WriteDelay stall every Read / Write call.
	ReadDelay, WriteDelay time.Duration
	// CloseAfterWrites kills the connection (from the wrapped side) after
	// that many bytes have been written through it.  Zero means never.
	// The write that crosses the threshold still goes out — the peer sees
	// a request followed by a dead connection, the worst case for
	// exactly-once semantics — and nothing is read after it: the
	// connection dies with that write, so a reply the peer manages to send
	// before the close lands is never delivered.
	CloseAfterWrites int64
	// CloseAfterReads kills the connection after that many bytes have been
	// read through it.  Zero means never.
	CloseAfterReads int64
	// CorruptRate is the per-Read probability that one byte of the data
	// just read is flipped before the caller sees it.  Decoders must treat
	// the stream as hostile.
	CorruptRate float64
}

// FaultyConn wraps a net.Conn and applies a ConnScript to its traffic.
type FaultyConn struct {
	net.Conn
	script ConnScript

	mu      sync.Mutex
	rng     *rand.Rand
	read    int64
	written int64
	killed  bool

	// Stats, readable after the connection dies.
	Corrupted int64
	Kills     int64
}

// WrapConn applies script to conn.  The wrapper is safe for the usual
// net.Conn discipline (one reader, one writer, Close from anywhere).
func WrapConn(conn net.Conn, script ConnScript) *FaultyConn {
	return &FaultyConn{
		Conn:   conn,
		script: script,
		rng:    rand.New(rand.NewSource(script.Seed)),
	}
}

func (c *FaultyConn) Read(p []byte) (int, error) {
	if c.script.ReadDelay > 0 {
		time.Sleep(c.script.ReadDelay)
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		if c.killed {
			c.mu.Unlock()
			return 0, net.ErrClosed
		}
		c.read += int64(n)
		if c.script.CorruptRate > 0 && c.rng.Float64() < c.script.CorruptRate {
			i := c.rng.Intn(n)
			p[i] ^= 1 << uint(c.rng.Intn(8))
			c.Corrupted++
		}
		kill := c.script.CloseAfterReads > 0 && c.read >= c.script.CloseAfterReads && !c.killed
		if kill {
			c.killed = true
			c.Kills++
		}
		c.mu.Unlock()
		if kill {
			c.Conn.Close()
		}
	}
	return n, err
}

func (c *FaultyConn) Write(p []byte) (int, error) {
	if c.script.WriteDelay > 0 {
		time.Sleep(c.script.WriteDelay)
	}
	// The kill is decided before the write goes out, so no reply to it can
	// be read in the window between the write and the close.
	c.mu.Lock()
	kill := c.script.CloseAfterWrites > 0 && c.written+int64(len(p)) >= c.script.CloseAfterWrites && !c.killed
	if kill {
		c.killed = true
		c.Kills++
	}
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.written += int64(n)
	c.mu.Unlock()
	if kill {
		c.Conn.Close()
	}
	return n, err
}

// FaultyDialer returns a dial function (for client.WithDialer) that wraps
// every connection it makes with the next script from scripts; once the
// scripts run out, further connections get the last one.  It records the
// wrapped connections for post-mortem inspection.
type FaultyDialer struct {
	Scripts []ConnScript

	mu    sync.Mutex
	Conns []*FaultyConn
}

// Dial is the net dial function with fault wrapping applied.
func (d *FaultyDialer) Dial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	script := ConnScript{}
	if len(d.Scripts) > 0 {
		i := len(d.Conns)
		if i >= len(d.Scripts) {
			i = len(d.Scripts) - 1
		}
		script = d.Scripts[i]
	}
	fc := WrapConn(conn, script)
	d.Conns = append(d.Conns, fc)
	return fc, nil
}

// DialCount reports how many connections the dialer has made.
func (d *FaultyDialer) DialCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.Conns)
}
