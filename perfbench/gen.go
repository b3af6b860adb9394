package main

import (
	"fmt"
	"math/rand"
	"strings"

	"omos/internal/osim"
	"omos/internal/workload"
)

// want is the reference result of one program run, computed in Go by
// the generator that wrote the program.
type want struct {
	Exit uint64
	Out  string
}

// program is a generated program meta-object and its reference result.
type program struct {
	Blueprint string
	Want      want
}

// smallProgram writes a short libc client: a seeded affine recurrence
// printed through putstr/putnum.  Its loop count stays in a narrow
// range so that seeds change the code, not the amount of work.
func smallProgram(rng *rand.Rand, tag string) program {
	a := 3 + rng.Intn(38)
	b := 1 + rng.Intn(1000)
	m := 1000 + rng.Intn(8000)
	s := rng.Intn(1000)
	n := 30 + rng.Intn(21)
	src := fmt.Sprintf(`extern int putstr(int fd, char *s);
extern int putnum(int fd, int v);
extern int putnl(int fd);
extern int strlen(char *s);
int step(int x) { return (x * %d + %d) %% %d; }
int main() {
    int i;
    int acc;
    acc = %d;
    i = 0;
    while (i < %d) { acc = step(acc + i); i = i + 1; }
    putstr(1, "%s ");
    putnum(1, acc);
    putnl(1);
    return acc %% 97 + strlen("%s");
}
`, a, b, m, s, n, tag, tag)
	acc := s
	for i := 0; i < n; i++ {
		acc = ((acc+i)*a + b) % m
	}
	return program{
		Blueprint: fmt.Sprintf("(merge /lib/crt0.o (source \"c\" %q) /lib/libc)", src),
		Want:      want{Exit: uint64(acc%97 + len(tag)), Out: fmt.Sprintf("%s %d\n", tag, acc)},
	}
}

// sizeDeck is the set of program shapes build-churn and mesh-miss
// draw from, each a workload.CodegenParams: a few source units of
// hot-chain and cold routines, the cold ones importing libc's bulk
// sections.  A seeded shuffle decides the order, so every seed builds
// the same mix of sizes.
var sizeDeck = []workload.CodegenParams{
	{Units: 2, FuncsPerUnit: 6, HotIters: 3},
	{Units: 3, FuncsPerUnit: 8, HotIters: 4},
	{Units: 4, FuncsPerUnit: 10, HotIters: 5},
	{Units: 3, FuncsPerUnit: 12, HotIters: 3},
	{Units: 2, FuncsPerUnit: 16, HotIters: 4},
	{Units: 4, FuncsPerUnit: 6, HotIters: 6},
}

// codegenProgram writes a program shaped like /bin/codegen at size p:
// the units of workload.CodegenUnits plus a main that runs the hot
// chain HotIters times and prints the result.  salt makes the content
// new (a fresh content key), so defining it forces a full build.
func codegenProgram(p workload.CodegenParams, salt int, tag string) program {
	units := workload.CodegenUnits(p)
	var sb strings.Builder
	sb.WriteString("(merge /lib/crt0.o\n")
	for _, name := range workload.CodegenUnitOrder(p) {
		if name == "main" {
			continue
		}
		fmt.Fprintf(&sb, "  (source \"c\" %q)\n", units[name])
	}
	main := fmt.Sprintf(`extern int cg00_r0(int x);
extern int putstr(int fd, char *s);
extern int putnum(int fd, int v);
extern int putnl(int fd);
int main() {
    int i;
    int acc;
    acc = %d;
    i = 0;
    while (i < %d) { acc = (acc + cg00_r0(acc + i)) %% 100003; i = i + 1; }
    putstr(1, "%s ");
    putnum(1, acc);
    putnl(1);
    return acc %% 113;
}
`, salt%1000, p.HotIters, tag)
	fmt.Fprintf(&sb, "  (source \"c\" %q)\n  /lib/libc)\n", main)
	acc := salt % 1000
	for i := 0; i < p.HotIters; i++ {
		acc = (acc + hotChain(p, 0, acc+i)) % 100003
	}
	return program{
		Blueprint: sb.String(),
		Want:      want{Exit: uint64(acc % 113), Out: fmt.Sprintf("%s %d\n", tag, acc)},
	}
}

// hotChain evaluates cgUU_r0(x) as workload.CodegenUnits writes it.
func hotChain(p workload.CodegenParams, u, x int) int {
	if u+1 >= p.Units {
		return x%9973 + u
	}
	v := x*(u+2) + u*11 + 1
	v ^= v >> 3
	return hotChain(p, u+1, v%9973) + u
}

// lsWant computes what /bin/ls prints for dir from the fixture tree
// workload.MakeFixtures builds: one name per line, or with a flag
// argument a "<d|->mode size name[/]" line per entry.
func lsWant(dir string, long bool) (want, error) {
	fs := osim.NewFS()
	if err := workload.MakeFixtures(fs); err != nil {
		return want{}, err
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return want{}, err
	}
	var sb strings.Builder
	for _, name := range names {
		if !long {
			sb.WriteString(name + "\n")
			continue
		}
		st, err := fs.Stat(dir + "/" + name)
		if err != nil {
			return want{}, err
		}
		kind, suffix := "-", ""
		if st.Kind == osim.KindDir {
			kind, suffix = "d", "/"
		}
		fmt.Fprintf(&sb, "%s%d %d %s%s\n", kind, st.Mode, st.Size, name, suffix)
	}
	return want{Out: sb.String()}, nil
}
