package daemon

import (
	"net"
	"strings"
	"testing"

	"omos"
	"omos/internal/ipc"
	"omos/internal/mesh"
	"omos/internal/workload"
)

func startDaemon(t *testing.T, workloads bool) *ipc.Client {
	t.Helper()
	sys, err := omos.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if workloads {
		cg := workload.CodegenParams{Units: 4, FuncsPerUnit: 4, HotIters: 3}
		if err := InstallWorkloads(sys, cg); err != nil {
			t.Fatal(err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ipc.Serve(l, New(sys))
	t.Cleanup(func() { l.Close() })
	c, err := ipc.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestEndToEndDaemon drives the real protocol against a real system:
// define a library and a program over the wire, run it, inspect it.
func TestEndToEndDaemon(t *testing.T) {
	c := startDaemon(t, false)

	if _, err := c.Call(&ipc.Request{Op: ipc.OpDefineLib, Path: "/lib/l",
		Text: `(source "c" "int triple(int x) { return 3 * x; }")`}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(&ipc.Request{Op: ipc.OpDefine, Path: "/bin/t",
		Text: `(merge /lib/crt0.o (source "c" "extern int triple(int); int main() { return triple(14); }") /lib/l)`}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/t"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ExitCode != 42 {
		t.Fatalf("exit = %d", resp.ExitCode)
	}
	// Bootstrap variant costs more system time (the IPC round trip).
	resp2, err := c.Call(&ipc.Request{Op: ipc.OpRunBoot, Path: "/bin/t"})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.ExitCode != 42 || resp2.Sys <= resp.Sys {
		t.Fatalf("boot run: exit=%d sys=%d (integrated sys=%d)", resp2.ExitCode, resp2.Sys, resp.Sys)
	}
	// Compile + list + disasm.
	cres, err := c.Call(&ipc.Request{Op: ipc.OpCompile, Path: "/obj/u", Unit: "u",
		Text: "int noop() { return 0; }"})
	if err != nil || len(cres.Paths) == 0 {
		t.Fatalf("compile: %v %v", err, cres)
	}
	dres, err := c.Call(&ipc.Request{Op: ipc.OpDisasm, Path: cres.Paths[0]})
	if err != nil || !strings.Contains(dres.Text, "ret") {
		t.Fatalf("disasm: %v %q", err, dres.Text)
	}
	sres, err := c.Call(&ipc.Request{Op: ipc.OpHealth})
	if err != nil || sres.Health == nil {
		t.Fatalf("stats: %v", err)
	}
	counter(t, sres.Health, "cache-hits")
	lres, err := c.Call(&ipc.Request{Op: ipc.OpList, Path: "/bin"})
	if err != nil || len(lres.Paths) != 1 {
		t.Fatalf("list: %v %v", err, lres.Paths)
	}
	if _, err := c.Call(&ipc.Request{Op: ipc.OpRemove, Path: "/bin/t"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/t"}); err == nil {
		t.Fatal("removed program still runs")
	}
}

func TestDaemonWorkloads(t *testing.T) {
	c := startDaemon(t, true)
	resp, err := c.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/ls",
		Args: []string{"-laF", "/data/many"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ExitCode != 0 || !strings.Contains(resp.Output, "file07.txt") {
		t.Fatalf("ls: exit=%d out=%q", resp.ExitCode, resp.Output)
	}
	resp, err = c.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/codegen"})
	if err != nil || resp.ExitCode != 0 {
		t.Fatalf("codegen: %v exit=%d", err, resp.ExitCode)
	}
}

// startMeshMember serves a system as one mesh member and returns its
// node (the listener address is the ring member ID).
func startMeshMember(t *testing.T, sys *omos.System, cfg mesh.Config) (*mesh.Node, *ipc.Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Self = l.Addr().String()
	node, err := mesh.New(sys.Srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	b := New(sys)
	b.Mesh = node
	srv := ipc.NewServer(b)
	srv.MeshSecret = cfg.Secret
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)
	return node, srv, cfg.Self
}

// TestNamespaceFederation: the §10 network-consolidation item on the
// mesh API — daemon B mounts mesh peer A's namespace and instantiates
// a program whose library lives on A.
func TestNamespaceFederation(t *testing.T) {
	// Server A holds the shared library and a helper object.
	sysA, err := omos.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := sysA.DefineLibrary("/shared/libz", `
(constraint-list "T" 0x3000000 "D" 0x43000000)
(source "c" "
extern int z_helper(int x);
int z_entry(int x) { return z_helper(x) * 2; }
")
`); err != nil {
		t.Fatal(err)
	}
	// The library references an object also held on A — the fetch must
	// recurse through the mount.
	if err := sysA.Assemble("/shared/helper.o", `
.text
z_helper:
    addi r0, r1, 1
    ret
`); err != nil {
		t.Fatal(err)
	}
	// Splice the helper object into the library's blueprint.
	if err := sysA.DefineLibrary("/shared/libz", `
(constraint-list "T" 0x3000000 "D" 0x43000000)
(merge
  (source "c" "
extern int z_helper(int x);
int z_entry(int x) { return z_helper(x) * 2; }
")
  /shared/helper.o)
`); err != nil {
		t.Fatal(err)
	}
	_, srvA, addrA := startMeshMember(t, sysA, mesh.Config{Secret: "fed-secret"})

	// Daemon B joins the mesh and mounts peer A under /shared.
	sysB, err := omos.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	nodeB, _, _ := startMeshMember(t, sysB, mesh.Config{Secret: "fed-secret"})
	nodeB.AddPeer(addrA)
	if err := nodeB.MountPeer("/shared", addrA); err != nil {
		t.Fatal(err)
	}
	// Unknown peers are refused.
	if err := nodeB.MountPeer("/nowhere", "127.0.0.1:1"); err == nil {
		t.Fatal("mounted an address that is not a mesh peer")
	}

	if err := sysB.Define("/bin/z", `
(merge /lib/crt0.o
  (source "c" "extern int z_entry(int); int main() { return z_entry(10); }")
  /shared/libz)
`); err != nil {
		t.Fatal(err)
	}
	res, err := sysB.Run("/bin/z", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 22 { // (10+1)*2
		t.Fatalf("exit = %d, want 22", res.ExitCode)
	}
	// The fetched entries are cached locally: a second run needs no
	// wire traffic (take peer A down entirely and rerun).
	srvA.Shutdown()
	res2, err := sysB.Run("/bin/z", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ExitCode != 22 {
		t.Fatalf("cached federation run: exit = %d", res2.ExitCode)
	}
	// Paths outside the mount still miss cleanly.
	if err := sysB.Define("/bin/miss", `(merge /elsewhere/nothing)`); err != nil {
		t.Fatal(err)
	}
	if _, err := sysB.Run("/bin/miss", nil); err == nil {
		t.Fatal("unmounted path resolved")
	}
}
