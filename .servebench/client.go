package main

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"echoimage/internal/proto"
)

// Outcome codes for failures that carry no protocol error code. Each is a
// correctness-gate failure.
const (
	codeTransport = "transport"     // dial, write or read failed
	codeEcho      = "echo_mismatch" // response carried another request ID
	codeBadReply  = "bad_reply"     // unexpected type or undecodable body
)

// responseType is the reply each request type must get.
var responseType = map[proto.MsgType]proto.MsgType{
	proto.TypeEnrollRequest:    proto.TypeEnrollResponse,
	proto.TypeAuthRequest:      proto.TypeAuthResponse,
	proto.TypeStatusRequest:    proto.TypeStatusResponse,
	proto.TypeRetrainRequest:   proto.TypeRetrainResponse,
	proto.TypeModelInfoRequest: proto.TypeModelInfoResponse,
}

// roundTripTimeout bounds one request; the slowest is a full retrain.
const roundTripTimeout = 2 * time.Minute

// client is one framed connection. It is used by one goroutine at a time.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	num  int // the connection's number in the run, unique per connection
	seq  int
}

func dial(addr string, num int) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), num: num}, nil
}

func (c *client) close() { c.conn.Close() }

// call sends f under a fresh request ID, reads the reply and decodes its
// body into into (when non-nil). It returns "" for a good reply, the
// server's error code for an in-band error, or one of the gate codes.
func (c *client) call(f *frame, into any) string {
	c.seq++
	// c<connection>r<sequence>, zero-padded to idWidth: 10^5 connections
	// of 10^9 requests each before two IDs could collide.
	id := fmt.Sprintf("c%05dr%09d", c.num, c.seq)
	if err := c.conn.SetDeadline(time.Now().Add(roundTripTimeout)); err != nil {
		return codeTransport
	}
	bufs := net.Buffers{f.head, []byte(id), f.tail}
	if _, err := bufs.WriteTo(c.conn); err != nil {
		return codeTransport
	}
	env, err := proto.Read(c.r)
	if err != nil {
		return codeTransport
	}
	if env.RequestID != id {
		return codeEcho
	}
	if env.Type == proto.TypeError {
		var e proto.ErrorResponse
		if err := proto.DecodeBody(env, &e); err != nil || e.Code == "" {
			return codeBadReply
		}
		return e.Code
	}
	if env.Type != responseType[f.kind] {
		return codeBadReply
	}
	if into != nil {
		if err := proto.DecodeBody(env, into); err != nil {
			return codeBadReply
		}
	}
	return ""
}

// gateFailure reports whether an outcome code fails the correctness gate:
// anything but success or a retryable refusal.
func gateFailure(code string) bool {
	return code != "" && !proto.RetryableCode(code)
}
