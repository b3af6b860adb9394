// Server demonstrates OMOS's server-nature features beyond plain
// linking: exporting namespace entries as "#!" Unix files (§5),
// evicting cached images so a library fix propagates (§2.1/§9), the
// versioning safety of partial images (§4.2), and federating OMOS
// daemons into a mesh over the network (§10).
package main

import (
	"fmt"
	"log"
	"net"

	"omos"
	"omos/internal/daemon"
	"omos/internal/ipc"
	"omos/internal/mesh"
)

// member stands up one mesh daemon: a simulated machine with the
// object server attached, serving the wire protocol, joined to the
// fleet by address.
func member(sys *omos.System, secret string) (*mesh.Node, string) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	node, err := mesh.New(sys.Srv, mesh.Config{Self: l.Addr().String(), Secret: secret})
	if err != nil {
		log.Fatal(err)
	}
	b := daemon.New(sys)
	b.Mesh = node
	srv := ipc.NewServer(b)
	srv.MeshSecret = secret
	go srv.Serve(l)
	return node, l.Addr().String()
}

func main() {
	const secret = "example-mesh"

	// ---- Server A: owns a shared library ----
	sysA, err := omos.NewSystem()
	if err != nil {
		log.Fatal(err)
	}
	defineLib := func(factor int) {
		err := sysA.DefineLibrary("/shared/libscale", fmt.Sprintf(`
(constraint-list "T" 0x3000000 "D" 0x43000000)
(source "c" "int scale(int x) { return x * %d; }")
`, factor))
		if err != nil {
			log.Fatal(err)
		}
	}
	defineLib(2)
	nodeA, addrA := member(sysA, secret)
	_ = nodeA
	fmt.Printf("server A listening on %s, owns /shared/libscale\n", addrA)

	// ---- Server B: joins the mesh and mounts A's namespace ----
	sysB, err := omos.NewSystem()
	if err != nil {
		log.Fatal(err)
	}
	nodeB, addrB := member(sysB, secret)
	nodeA.AddPeer(addrB)
	nodeB.AddPeer(addrA)
	if err := nodeB.MountPeer("/shared", addrA); err != nil {
		log.Fatal(err)
	}
	err = sysB.Define("/bin/app", `
(merge /lib/crt0.o
  (source "c" "extern int scale(int); int main() { return scale(21); }")
  /shared/libscale)
`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sysB.Run("/bin/app", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server B ran /bin/app against A's library: exit=%d\n", res.ExitCode)
	fmt.Printf("server B mesh counters: %+v\n", nodeB.Counters())

	// ---- Unix-namespace export: #! files (§5) ----
	if err := sysB.RT.ExportToUnix("/bin/app", "/usr/bin/app"); err != nil {
		log.Fatal(err)
	}
	p, err := sysB.RT.ExecPath("/usr/bin/app", nil)
	if err != nil {
		log.Fatal(err)
	}
	code, err := sysB.Kern.RunToExit(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exec of the #! export /usr/bin/app: exit=%d\n", code)
	p.Release()

	// ---- Library fix + eviction (§2.1: "a library fix is instantly
	// incorporated into all clients") ----
	defineLib(3) // the fix, on server A
	// B evicts its imported copy and cached images, then refetches.
	sysB.Srv.Remove("/shared/libscale")
	n := sysB.Srv.Evict("/bin/app")
	n += sysB.Srv.Evict("/shared/libscale")
	res2, err := sysB.Run("/bin/app", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after the library fix (evicted %d images): exit=%d\n", n, res2.ExitCode)

	// ---- Partial-image versioning (§4.2) ----
	if err := sysB.BuildPartialExec("/bin/app", "/bin/app.exe"); err != nil {
		log.Fatal(err)
	}
	r3, err := sysB.RunPartial("/bin/app.exe", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partial image bound at current version: exit=%d\n", r3.ExitCode)
	// Change the library locally; the stale partial image must refuse.
	// The hijack defense blocks the silent re-bind of a live program's
	// symbol, so the redefinition must be explicit.
	v5 := `(source "c" "int scale(int x) { return x * 5; }")`
	if err := sysB.DefineLibrary("/shared/libscale", v5); err == nil {
		log.Fatal("silent re-bind of a live program's symbol was not blocked")
	} else {
		fmt.Printf("hijack defense blocked the silent re-bind:\n  %v\n", err)
	}
	if err := sysB.Srv.DefineLibraryAllow("/shared/libscale", v5, true); err != nil {
		log.Fatal(err)
	}
	if _, err := sysB.RunPartial("/bin/app.exe", nil); err != nil {
		fmt.Printf("stale partial image correctly rejected:\n  %v\n", err)
	} else {
		log.Fatal("stale partial image was not rejected")
	}
}
