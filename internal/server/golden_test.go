package server

import (
	"encoding/hex"
	"net"
	"testing"
	"time"

	"github.com/mostdb/most/internal/wire"
)

// captureNotify opens a raw session at the given protocol version,
// subscribes a continuous query on the seeded test fleet, steers one car
// out of the region (one install, so one NOTIFY), and returns that NOTIFY
// frame exactly as it came off the socket.
func captureNotify(t *testing.T, version int) []byte {
	t.Helper()
	_, addr := startTestServer(t, 12, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	hello, err := wire.EncodeFrame(wire.MinProtocolVersion, wire.OpHello, 1, &wire.HelloReq{ClientID: "golden", MaxVersion: version})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(conn, 1<<20)
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	dec.SetVersion(uint8(version))
	send := func(op wire.Opcode, id uint64, payload any) {
		f, err := wire.EncodeFrame(uint8(version), op, id, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
	}
	send(wire.OpSubscribe, 2, &wire.SubscribeReq{Src: "RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 10 INSIDE(o, P)", Horizon: 50})
	send(wire.OpUpdateBatch, 3, &wire.UpdateBatchReq{Ops: []wire.UpdateOp{
		{Op: wire.OpSetMotion, ID: vid(3), VX: 40, VY: 40},
	}})
	for {
		f, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Op == wire.OpNotify {
			b, err := wire.AppendFrame(nil, f)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
}

// TestNotifyFramesGoldenV2 pins that sessions at protocol version 2
// receive full NOTIFY frames byte-identical to the encoding before delta
// NOTIFYs existed.
func TestNotifyFramesGoldenV2(t *testing.T) {
	if got := hex.EncodeToString(captureNotify(t, wire.ProtocolV2)); got != notifyGoldenV2 {
		t.Errorf("v2 NOTIFY frame changed:\n got:  %s\n want: %s", got, notifyGoldenV2)
	}
}

// The frame a pre-delta server sent for captureNotify's scenario.
const notifyGoldenV2 = "4d57022200000000000000000000013301000000000000000100000000000000070000000100000001096361722d3030303032000000000000000000001a0000000000000032000000000000000100000001096361722d303030303300000000000000000000000000000000000001000000000000000100000001096361722d303030303400000000000000000000000000000000000007000000000000000100000001096361722d303030303700000000000000000000010000000000000030000000000000000100000001096361722d303030303800000000000000000000000000000000000032000000000000000100000001096361722d303030303900000000000000000000000000000000000005000000000000000100000001096361722d30303031310000000000000000000000000000000000000400000000000000"
