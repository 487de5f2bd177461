package daemon

import (
	"context"
	"encoding/json"
	"net"
	"testing"

	"echoimage/internal/cluster"
	"echoimage/internal/proto"
)

// TestMalformedCaptureAnsweredInBand sends authenticate requests whose
// capture bodies are cut short or hold non-numeric samples, straight to a
// daemon and through a router in front of it. Framing does not check
// bodies, so each request must reach the daemon's DecodeBody and come back
// as an in-band bad_request with its request ID echoed, and the same
// connection must go on to serve the next request.
func TestMalformedCaptureAnsweredInBand(t *testing.T) {
	srv := testServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	daemonLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	daemonDone := make(chan error, 1)
	go func() { daemonDone <- srv.Serve(ctx, daemonLn) }()

	router := cluster.New(cluster.Options{})
	if err := router.AddShard("s0", daemonLn.Addr().String(), ""); err != nil {
		t.Fatal(err)
	}
	routerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	routerDone := make(chan struct{})
	go func() {
		router.Serve(ctx, routerLn)
		close(routerDone)
	}()
	t.Cleanup(func() {
		cancel()
		<-routerDone
		router.Close()
		<-daemonDone
	})

	bodies := map[string]string{
		"cut mid-array":      `{"capture":{"beeps":[[[0.25,-0.5`,
		"cut after a comma":  `{"capture":{"beeps":[[[0.25,]]],"sample_rate":48000}}`,
		"cut mid-number":     `{"capture":{"beeps":[[[0.25,-0.]]],"sample_rate":48000}}`,
		"string sample":      `{"capture":{"beeps":[[[0.25,"0.5"]]],"sample_rate":48000}}`,
		"bare-word sample":   `{"capture":{"beeps":[[[0.25,NaN]]],"sample_rate":48000}}`,
		"non-numeric rate":   `{"capture":{"beeps":[[[0.25]]],"sample_rate":true}}`,
		"object for samples": `{"capture":{"beeps":{"0":[0.25]},"sample_rate":48000}}`,
	}
	for _, target := range []struct{ name, addr string }{
		{"daemon", daemonLn.Addr().String()},
		{"router", routerLn.Addr().String()},
	} {
		conn, err := net.Dial("tcp", target.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		pc := proto.NewConn(conn)
		for name, body := range bodies {
			reqID := target.name + "/" + name
			resp := roundTrip(t, pc, &proto.Envelope{
				Version: proto.Version, RequestID: reqID, User: 1, Type: proto.TypeAuthRequest, Body: json.RawMessage(body),
			})
			if resp.Type != proto.TypeError || resp.RequestID != reqID {
				t.Fatalf("%s: answered %s for request %q", reqID, resp.Type, resp.RequestID)
			}
			var e proto.ErrorResponse
			if err := proto.DecodeBody(resp, &e); err != nil {
				t.Fatal(err)
			}
			if e.Code != proto.CodeBadRequest {
				t.Errorf("%s: code %q (%s), want %q", reqID, e.Code, e.Message, proto.CodeBadRequest)
			}

			// The connection serves the next request.
			next := roundTrip(t, pc, &proto.Envelope{Version: proto.Version, RequestID: reqID + "/next", User: 1, Type: proto.TypeStatusRequest})
			if next.Type != proto.TypeStatusResponse || next.RequestID != reqID+"/next" {
				t.Fatalf("%s: next request answered %s for %q", reqID, next.Type, next.RequestID)
			}
		}
	}
}

func roundTrip(t *testing.T, pc *proto.Conn, env *proto.Envelope) *proto.Envelope {
	t.Helper()
	if err := pc.SendEnvelope(env); err != nil {
		t.Fatal(err)
	}
	resp, err := pc.Receive()
	if err != nil {
		t.Fatalf("%s: connection lost: %v", env.RequestID, err)
	}
	return resp
}
