package traffic

import (
	"fmt"
	"math/rand"

	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

// NAS message types of the UE initial-registration call flow, the
// state-intensive procedure of the paper's EXP B and Figure 12. Each
// message's handler touches a different slice of the (>20 cache line)
// UE context.
const (
	// MsgRegistrationRequest opens the procedure: identity resolution
	// plus context allocation.
	MsgRegistrationRequest uint8 = iota + 1
	// MsgAuthResponse carries the UE's authentication result; the
	// handler checks it against the stored authentication vector.
	MsgAuthResponse
	// MsgSecModeComplete completes NAS security negotiation.
	MsgSecModeComplete
	// MsgRegistrationComplete finalizes registration and builds the
	// registration area.
	MsgRegistrationComplete
	// MsgPDUSessionRequest asks for a PDU session right after
	// registration (UL NAS transport).
	MsgPDUSessionRequest

	// NumAMFMessages is the number of message kinds in the call flow.
	NumAMFMessages = int(MsgPDUSessionRequest)
)

// AMFMessageName names a NAS message type for reports.
func AMFMessageName(msg uint8) string {
	switch msg {
	case MsgRegistrationRequest:
		return "RegistrationRequest"
	case MsgAuthResponse:
		return "AuthResponse"
	case MsgSecModeComplete:
		return "SecModeComplete"
	case MsgRegistrationComplete:
		return "RegistrationComplete"
	case MsgPDUSessionRequest:
		return "PDUSessionRequest"
	default:
		return fmt.Sprintf("msg(%d)", msg)
	}
}

// AMFConfig parametrizes the registration workload.
type AMFConfig struct {
	// UEs is the subscriber population (the paper assumes 2^17).
	UEs int
	// MsgType, when non-zero, emits only that message type — the
	// per-message measurement mode of Figures 3 and 12. When zero the
	// generator interleaves full call flows across UEs.
	MsgType uint8
	// Seed makes the workload deterministic.
	Seed int64
}

// AMFGen emits NAS messages from a UE population. Control-plane
// messages are small; WireLen models a typical NAS PDU over N2.
type AMFGen struct {
	cfg   AMFConfig
	rng   *rand.Rand
	pool  *pool
	stage []uint8 // per-UE progress through the call flow
}

// NewAMFGen validates cfg and builds the generator.
func NewAMFGen(cfg AMFConfig) (*AMFGen, error) {
	if cfg.UEs <= 0 {
		return nil, fmt.Errorf("traffic: amf: UEs must be positive, got %d", cfg.UEs)
	}
	if int(cfg.MsgType) > NumAMFMessages {
		return nil, fmt.Errorf("traffic: amf: unknown message type %d", cfg.MsgType)
	}
	g := &AMFGen{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		pool: newPool(),
	}
	if cfg.MsgType == 0 {
		// Start UEs at random call-flow positions so the message-type
		// mix is uniform from the first packet (a fresh population
		// would otherwise emit only RegistrationRequests until every
		// UE had been visited once).
		g.stage = make([]uint8, cfg.UEs)
		for i := range g.stage {
			g.stage[i] = uint8(g.rng.Intn(NumAMFMessages))
		}
	}
	return g, nil
}

// Next emits the next NAS message. In call-flow mode each UE advances
// RegistrationRequest → … → PDUSessionRequest and then starts over
// (periodic re-registration), with UEs interleaved at random — the
// heterogeneous-workload property the paper stresses.
func (g *AMFGen) Next() *pkt.Packet {
	ue := g.rng.Intn(g.cfg.UEs)
	msg := g.cfg.MsgType
	if msg == 0 {
		msg = g.stage[ue] + 1
		g.stage[ue] = uint8((int(g.stage[ue]) + 1) % NumAMFMessages)
	}
	p := g.pool.take()
	tuple := pkt.FiveTuple{
		SrcIP:   0xac100001, // gNB N2 endpoint
		DstIP:   0xac100002, // AMF
		SrcPort: 38412,      // SCTP NGAP port (modelled over UDP framing)
		DstPort: 38412,
		Proto:   pkt.ProtoUDP,
	}
	buildUDPish(p, tuple, 120)
	p.UE = uint32(ue)
	p.MsgType = msg
	return p
}
