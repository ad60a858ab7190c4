package snmp

import (
	"errors"
	"fmt"
	"net"
	"time"
)

// Transport sends one encoded request and returns the encoded response.
type Transport func(req []byte) ([]byte, error)

// UDPTransport returns a Transport over UDP with the given per-request
// timeout. It is the live composition seam: deadlines come from the wall
// clock. Tests and simulations use UDPTransportClock with an injected
// clock instead.
func UDPTransport(addr string, timeout time.Duration) Transport {
	return UDPTransportClock(addr, timeout, time.Now) // live UDP transport seam; every other caller injects a clock
}

// UDPTransportClock is UDPTransport with an injected clock: now anchors
// each request's I/O deadline, so deadline arithmetic is testable without
// real sockets timing out.
func UDPTransportClock(addr string, timeout time.Duration, now func() time.Time) Transport {
	if timeout <= 0 {
		timeout = 3 * time.Second
	}
	return func(req []byte) ([]byte, error) {
		conn, err := net.Dial("udp", addr)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		if err := conn.SetDeadline(now().Add(timeout)); err != nil {
			return nil, err
		}
		if _, err := conn.Write(req); err != nil {
			return nil, err
		}
		buf := make([]byte, 64*1024)
		n, err := conn.Read(buf)
		if err != nil {
			return nil, err
		}
		return buf[:n], nil
	}
}

// AgentTransport returns an in-process Transport against an agent.
func AgentTransport(a *Agent) Transport {
	return func(req []byte) ([]byte, error) {
		resp := a.Handle(req)
		if resp == nil {
			return nil, errors.New("snmp: agent dropped request")
		}
		return resp, nil
	}
}

// Client issues SNMP queries through a Transport.
type Client struct {
	Community string
	Send      Transport
	nextID    int32
}

// NewClient returns a client.
func NewClient(community string, send Transport) *Client {
	return &Client{Community: community, Send: send}
}

func (c *Client) roundTrip(t PDUType, oid OID) (*Message, error) {
	c.nextID++
	req := &Message{
		Community: c.Community,
		Type:      t,
		RequestID: c.nextID,
		Bindings:  []VarBind{{OID: oid, Value: Value{Kind: KindNull}}},
	}
	enc, err := req.Marshal()
	if err != nil {
		return nil, err
	}
	raw, err := c.Send(enc)
	if err != nil {
		return nil, err
	}
	resp, err := Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	if resp.RequestID != req.RequestID {
		return nil, fmt.Errorf("snmp: response ID %d for request %d", resp.RequestID, req.RequestID)
	}
	return resp, nil
}

// Get fetches one exact OID.
func (c *Client) Get(oid OID) (Value, error) {
	resp, err := c.roundTrip(Get, oid)
	if err != nil {
		return Value{}, err
	}
	if resp.ErrorStatus != 0 || len(resp.Bindings) == 0 {
		return Value{}, fmt.Errorf("snmp: no such object %s", oid)
	}
	return resp.Bindings[0].Value, nil
}

// Walk retrieves every binding under root via GetNext, in OID order —
// how mstat-era tools dumped router tables over SNMP.
func (c *Client) Walk(root OID) ([]VarBind, error) {
	var out []VarBind
	cur := root
	for i := 0; i < 1<<20; i++ {
		resp, err := c.roundTrip(GetNext, cur)
		if err != nil {
			return out, err
		}
		if resp.ErrorStatus == NoSuchName || len(resp.Bindings) == 0 {
			return out, nil
		}
		vb := resp.Bindings[0]
		if !vb.OID.HasPrefix(root) {
			return out, nil
		}
		if vb.OID.Compare(cur) <= 0 {
			return out, errors.New("snmp: agent did not advance (loop)")
		}
		out = append(out, vb)
		cur = vb.OID
	}
	return out, errors.New("snmp: walk exceeded limit")
}
