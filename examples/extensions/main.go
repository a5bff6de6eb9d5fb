// Extensions showcase: the two capabilities built on top of the
// paper's design —
//
//  1. confidential containers (§V/§VI) as an additional execution-unit
//     type, composed over the TDX backend, reproducing the
//     "unpractical" I/O overheads the paper references; and
//
//  2. attested secure channels (§II): an ECDH key exchange bound into
//     SEV-SNP attestation evidence, ending in an AES-GCM-protected
//     message exchange between the confidential VM and a relying party.
//
//     go run ./examples/extensions
package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"log"

	"confbench"
	"confbench/internal/attest"
	"confbench/internal/faas"
	"confbench/internal/tee"
	"confbench/internal/tee/container"
	"confbench/internal/vm"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := confbench.New(confbench.WithTEEs(tee.KindTDX, tee.KindSEV), confbench.WithGuestMemoryMB(16))
	if err != nil {
		return err
	}
	defer cluster.Close()

	if err := containersDemo(cluster); err != nil {
		return err
	}
	return attestedChannelDemo(cluster)
}

func containersDemo(cluster *confbench.Cluster) error {
	ctx := context.Background()
	fmt.Println("== Confidential containers (pluggable execution unit) ==")
	inner, err := cluster.Backend(tee.KindTDX)
	if err != nil {
		return err
	}
	ccBackend, err := container.NewBackend(inner)
	if err != nil {
		return err
	}
	ccPair, err := vm.NewPair(ccBackend, tee.GuestConfig{MemoryMB: 16}, cluster.Catalog())
	if err != nil {
		return err
	}
	defer ccPair.Stop()
	vmPair, err := cluster.Pair(tee.KindTDX)
	if err != nil {
		return err
	}

	fn := faas.Function{Name: "io", Language: "go", Workload: "iostress"}
	ccRes, err := ccPair.Secure.InvokeFunction(ctx, fn, 4)
	if err != nil {
		return err
	}
	vmRes, err := vmPair.Secure.InvokeFunction(ctx, fn, 4)
	if err != nil {
		return err
	}
	fmt.Printf("iostress in confidential VM:        %v\n", vmRes.Wall)
	fmt.Printf("iostress in confidential container: %v (%.1fx — the §V 'unpractical' overhead)\n\n",
		ccRes.Wall, ccRes.Wall.Seconds()/vmRes.Wall.Seconds())
	return nil
}

func attestedChannelDemo(cluster *confbench.Cluster) error {
	ctx := context.Background()
	fmt.Println("== Attested secure channel (SEV-SNP) ==")
	attester, verifier, err := cluster.SEVAttestation()
	if err != nil {
		return err
	}

	// Relying party picks a challenge; the guest binds a fresh ECDH
	// key into its attestation evidence.
	challenge := make([]byte, attest.ChallengeSize)
	if _, err := rand.Read(challenge); err != nil {
		return err
	}
	guest, offer, err := attest.NewGuestSession(ctx, attester, challenge)
	if err != nil {
		return err
	}
	fmt.Printf("guest offered %d bytes of evidence binding its ECDH key\n", len(offer.Evidence.Data))

	relying, relyingPub, verdict, err := attest.AcceptSession(ctx, verifier, offer, challenge)
	if err != nil {
		return err
	}
	fmt.Printf("relying party verified the guest: measurement %.24s…, TCB %s\n",
		verdict.Measurement, verdict.TCBStatus)

	guestSession, err := guest.Complete(relyingPub)
	if err != nil {
		return err
	}
	sealed, err := guestSession.Seal([]byte("secret result computed inside the confidential VM"))
	if err != nil {
		return err
	}
	opened, err := relying.Open(sealed)
	if err != nil {
		return err
	}
	fmt.Printf("sealed %d bytes crossed the channel; relying party read: %q\n", len(sealed), opened)
	return nil
}
