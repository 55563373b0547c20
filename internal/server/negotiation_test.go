package server

import (
	"bytes"
	"net"
	"testing"
	"time"

	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/wire"
)

// The version-negotiation matrix: every (client max, server max) pairing
// must land on min(client, server) — a cap of 1, the retired JSON version,
// acting as 2 — and the session must work end to end at that version.
func TestVersionNegotiationMatrix(t *testing.T) {
	cases := []struct {
		name                 string
		clientMax, serverMax int
		want                 int
	}{
		{"v1 client, v2 server", 1, 2, 2},
		{"v3 client, v2 server (downgrade)", 3, 2, 2},
		{"v2 client, v2 server", 2, 2, 2},
		{"v2 client, v3 server", 2, 3, 2},
		{"default client, default server", 0, 0, wire.MaxProtocolVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startTestServer(t, 4, Config{MaxProtocol: tc.serverMax})
			opts := []client.Option{}
			if tc.clientMax > 0 {
				opts = append(opts, client.WithProtocol(tc.clientMax))
			}
			c, err := client.Dial(addr, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if got := c.Protocol(); got != tc.want {
				t.Fatalf("negotiated protocol %d, want %d", got, tc.want)
			}
			// The negotiated session must carry real traffic, not just a
			// handshake: a mutating round trip and a query.
			if _, err := c.UpdateBatch([]wire.UpdateOp{
				{Op: wire.OpSetMotion, ID: vid(0), VX: 1, VY: 1},
			}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.Query(`RETRIEVE o FROM Vehicles o WHERE TRUE`, 10); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A legacy client speaks version 1 (JSON payloads), which is retired: its
// Hello is a protocol violation.  The server counts it, answers with an
// error frame at the lowest version it speaks, and disconnects without
// ever negotiating.
func TestVersionNegotiationLegacyClientSpeaksV1(t *testing.T) {
	reg := obs.New()
	_, addr := startTestServer(t, 2, Config{Reg: reg})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	// Hand-rolled v1 hello, as an old client sent it: version byte 1 and a
	// JSON payload.  No encoder in this tree produces one.
	payload := []byte(`{"client_id":"legacy","max_version":1}`)
	hello, err := wire.AppendFrame(nil, wire.Frame{Op: wire.OpHello, ID: 1, Version: wire.ProtocolV2, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	hello[2] = 1
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(conn, 1<<20)
	sawError := false
	for {
		f, err := dec.Next()
		if err != nil {
			break // disconnected
		}
		if f.Op != wire.OpError || f.Version != wire.MinProtocolVersion {
			t.Fatalf("v1 hello answered with %v at version %d, want an error frame at %d", f.Op, f.Version, wire.MinProtocolVersion)
		}
		sawError = true
	}
	if !sawError {
		t.Log("connection closed without an error frame (best-effort push raced the close)")
	}
	waitCounter(t, reg, "server.protocol_violations")
	if n := reg.Snapshot().Counters["server.frames_in"]; n != 0 {
		t.Fatalf("server handled %d frames of a v1 session, want 0", n)
	}
}

// waitCounter waits for a registry counter to become nonzero.
func waitCounter(t *testing.T, reg *obs.Registry, name string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters[name] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s not counted", name)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A frame carrying the wrong version mid-session is a protocol violation:
// the server counts it, answers with an error frame, and disconnects.
func TestMidSessionProtocolViolationDisconnects(t *testing.T) {
	reg := obs.New()
	_, addr := startTestServer(t, 2, Config{Reg: reg})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	hello, err := wire.EncodeFrame(wire.MinProtocolVersion, wire.OpHello, 1, &wire.HelloReq{MaxVersion: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(conn, 1<<20)
	resp, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	var hr wire.HelloResp
	if err := wire.Unmarshal(resp, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Version != 2 {
		t.Fatalf("negotiated %d, want 2", hr.Version)
	}

	// Violate the negotiation: send a v3 frame on the now-v2 session.
	violation := wire.Frame{Op: wire.OpPing, ID: 9, Version: wire.ProtocolV3}
	if err := wire.WriteFrame(conn, violation); err != nil {
		t.Fatal(err)
	}
	// The server pushes a best-effort error frame, then closes the
	// connection; either read order ends in a closed socket.
	sawError := false
	for {
		f, err := dec.Next()
		if err != nil {
			break // disconnected
		}
		if f.Op == wire.OpError {
			sawError = true
		}
	}
	if !sawError {
		t.Log("connection closed without an error frame (best-effort push raced the close)")
	}
	waitCounter(t, reg, "server.protocol_violations")
}

// Idempotent retries must survive a mid-call reconnect at both protocol
// versions: the replayed request ID answers from the dedup cache at the
// version of the retried connection.
func TestDedupReplayAcrossReconnectBothVersions(t *testing.T) {
	for _, proto := range []int{2, 3} {
		t.Run(map[int]string{2: "v2", 3: "v3"}[proto], func(t *testing.T) {
			_, addr := startTestServer(t, 4, Config{})
			c, err := client.Dial(addr, client.WithProtocol(proto), client.WithClientID("dedup-test"))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < 3; i++ {
				if _, err := c.UpdateBatch([]wire.UpdateOp{
					{Op: wire.OpSetMotion, ID: vid(0), VX: float64(i), VY: 0},
				}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// A replayed response must arrive at the version of the retrying
// connection, not the connection that executed the original (PROTOCOL.md
// §5): responses to mutating requests encode identically at v2 and v3, so
// the replay is the original payload restamped.  Execute at one version,
// reconnect the same client identity at the other, retry the same request
// ID, and demand the original answer framed at the new version — without
// the update applying twice.  The last round replays from a receipt the
// server recovered from its log after a crash.
func TestDedupReplayRestampsAcrossVersions(t *testing.T) {
	dir := t.TempDir()
	srv, _ := startDurable(t, dir, "", Config{})
	addr := srv.Addr().String()

	// dial performs a raw handshake at maxVersion and returns the decoder
	// pinned to the negotiated version.
	dial := func(maxVersion int) (net.Conn, *wire.Decoder) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		hello, err := wire.EncodeFrame(wire.MinProtocolVersion, wire.OpHello, 1,
			&wire.HelloReq{ClientID: "restamp-test", MaxVersion: maxVersion})
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, hello); err != nil {
			t.Fatal(err)
		}
		dec := wire.NewDecoder(conn, 1<<20)
		resp, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		var hr wire.HelloResp
		if err := wire.Unmarshal(resp, &hr); err != nil {
			t.Fatal(err)
		}
		if hr.Version != maxVersion {
			t.Fatalf("negotiated %d, want %d", hr.Version, maxVersion)
		}
		dec.SetVersion(uint8(hr.Version))
		return conn, dec
	}

	roundTrip := func(conn net.Conn, dec *wire.Decoder, version uint8, id uint64) wire.Frame {
		t.Helper()
		req, err := wire.EncodeFrame(version, wire.OpUpdateBatch, id, &wire.UpdateBatchReq{
			Ops: []wire.UpdateOp{{Op: wire.OpSetMotion, ID: vid(0), VX: 2, VY: float64(id)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, req); err != nil {
			t.Fatal(err)
		}
		resp, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Op != wire.OpResult || resp.ID != id {
			t.Fatalf("got frame %v/%d, want result/%d", resp.Op, resp.ID, id)
		}
		if resp.Version != version {
			t.Fatalf("response framed at version %d, want %d", resp.Version, version)
		}
		return resp
	}
	version := func(f wire.Frame) uint64 {
		t.Helper()
		var ub wire.UpdateBatchResp
		if err := wire.Unmarshal(f, &ub); err != nil {
			t.Fatal(err)
		}
		return ub.Version
	}

	for i, vs := range [][2]uint8{{wire.ProtocolV3, wire.ProtocolV2}, {wire.ProtocolV2, wire.ProtocolV3}} {
		reqID := uint64(40 + 2*i)
		connA, decA := dial(int(vs[0]))
		orig := roundTrip(connA, decA, vs[0], reqID)
		connA.Close()

		connB, decB := dial(int(vs[1]))
		replay := roundTrip(connB, decB, vs[1], reqID)
		if !bytes.Equal(replay.Payload, orig.Payload) {
			t.Fatalf("v%d replay of a v%d response: payload %x, want %x", vs[1], vs[0], replay.Payload, orig.Payload)
		}
		// The replay must not have applied again: the database version a
		// fresh request observes is exactly one past the original's.
		if fresh := roundTrip(connB, decB, vs[1], reqID+1); version(fresh) != version(orig)+1 {
			t.Fatalf("db version %d after replay+1 update, want %d (replay must not re-apply)",
				version(fresh), version(orig)+1)
		}
		connB.Close()
	}

	// Crash and recover: the receipt comes back from the log, and a retry
	// at the other version replays it restamped.
	const reqID = 50
	connA, decA := dial(wire.ProtocolV2)
	orig := roundTrip(connA, decA, wire.ProtocolV2, reqID)
	connA.Close()
	srv.Abort()
	srv2, info := startDurable(t, dir, addr, Config{})
	defer srv2.Abort()
	if info.Receipts == 0 {
		t.Fatal("no receipts recovered")
	}
	connB, decB := dial(wire.ProtocolV3)
	replay := roundTrip(connB, decB, wire.ProtocolV3, reqID)
	if !bytes.Equal(replay.Payload, orig.Payload) {
		t.Fatalf("v3 replay of a recovered v2 receipt: payload %x, want %x", replay.Payload, orig.Payload)
	}
	if fresh := roundTrip(connB, decB, wire.ProtocolV3, reqID+1); version(fresh) != version(orig)+1 {
		t.Fatalf("db version %d after recovered replay+1 update, want %d", version(fresh), version(orig)+1)
	}
}
