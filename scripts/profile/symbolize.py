#!/usr/bin/env python3
"""Symbolize sigprof.<pid>.out files: leaf, inclusive, owner and call-tree tables.

usage: symbolize.py [FILE_OR_DIR ...]   (default: the current directory)

Of the files given (or found), the one with the most samples is reported: for
`bench --workload W --trace 0` that is the measured child, the set-up children
being the small ones. Needs binutils' `addr2line`.
"""
import bisect, collections, glob, os, re, subprocess, sys

TOP = 40          # rows in the leaf and inclusive tables
TREE_MIN = 0.02   # call-tree branches under this share of all samples are cut
OURS = re.compile(r"[<&]*(mut )?(bb_|blockbench::|bench::)")  # a frame from this workspace
IN_LIB = re.compile(r" \[[^\]]*\.so[^\]]*\]$")                 # the tag symbolize() puts on a library frame


def read(path):
    """(stacks of addresses innermost first, executable mappings, load address per file)"""
    with open(path) as f:
        lines = f.read().splitlines()
    cut = lines.index("== maps")
    stacks = [[int(a, 16) for a in line.split()] for line in lines[:cut]]
    maps, bases = [], {}
    for parts in (line.split() for line in lines[cut + 1:]):
        if len(parts) >= 6 and parts[5].startswith("/"):
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            bases[parts[5]] = min(lo, bases.get(parts[5], lo))
            if "x" in parts[1]:
                maps.append((lo, hi, parts[5]))
    return stacks, sorted(maps), bases


def symbolize(stacks, maps, bases):
    """{address: [function, ...]}, innermost first, inlined frames expanded."""
    where, by_file = {}, collections.defaultdict(set)
    starts = [lo for lo, _, _ in maps]
    for stack in stacks:
        for depth, addr in enumerate(stack):
            i = bisect.bisect_right(starts, addr) - 1
            if i >= 0 and addr < maps[i][1]:
                path = maps[i][2]
                # A return address belongs to the call before it.
                where[addr] = (path, addr - bases[path] - (1 if depth else 0))
                by_file[path].add(where[addr][1])
    names = {}
    for path, vaddrs in by_file.items():
        out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", path], capture_output=True,
                             input="\n".join(hex(v) for v in sorted(vaddrs)), text=True).stdout
        # A shared library here is stripped: addr2line names the nearest exported
        # symbol below the address, often not the function itself. Say whose it is.
        tag = f" [{os.path.basename(path)}]" if ".so" in path else ""
        for line in out.splitlines():
            if line.startswith("0x"):
                current = names[(path, int(line, 16))] = []
            elif not (":" in line and line[0] in "/?"):  # not a file:line row
                current.append(line + tag)
    return {addr: names[loc] for addr, loc in where.items()}


def main():
    args = sys.argv[1:] or ["."]
    files = [f for a in args for f in (glob.glob(os.path.join(a, "sigprof.*.out")) if os.path.isdir(a) else [a])]
    if not files:
        sys.exit("symbolize.py: no sigprof.*.out files")
    path = max(files, key=lambda f: len(read(f)[0]))
    stacks, maps, bases = read(path)
    names = symbolize(stacks, maps, bases)
    samples = []  # outermost first; a recursion shows as one frame
    for stack in stacks:
        # stack[:2] are the sampler's own frames: the handler and the signal trampoline.
        frames = [fn for addr in reversed(stack[2:]) for fn in reversed(names.get(addr, ["??"]))]
        samples.append([fn for i, fn in enumerate(frames) if i == 0 or fn != frames[i - 1]])
    total = len(samples)
    print(f"{path}: {total} samples ({total * 3 / 1000:.2f} s of CPU at 3 ms)")

    def table(title, counts):
        print(f"\n== {title}")
        for fn, n in counts.most_common(TOP):
            print(f"{n:7d} {100 * n / total:5.1f}%  {fn}")

    table("leaf: where the program counter was", collections.Counter(s[-1] for s in samples if s))
    on_every_stack = {fn for fn, n in collections.Counter(fn for s in samples for fn in set(s)).items()
                      if n >= 0.99 * total}
    table("inclusive: samples with the function anywhere on the stack (those on every stack left out)",
          collections.Counter(fn for s in samples for fn in set(s) - on_every_stack))

    # Stripped libc resolves memcpy, malloc and free alike to whatever exported
    # symbol sits below them; the workspace frame that called in is the answer.
    def owner(s):
        return next((fn for fn in reversed(s) if OURS.match(fn)), "(no workspace frame)")

    table("owner: innermost workspace frame (bb_*, blockbench::, bench::) of each sample",
          collections.Counter(owner(s) for s in samples))
    table("owner, only of samples whose leaf is in a shared library (libc's memcpy, malloc, ...)",
          collections.Counter(owner(s) for s in samples if s and IN_LIB.search(s[-1])))

    print(f"\n== call tree (branches >= {100 * TREE_MIN:.0f}% of all samples)")

    def tree(rows, depth):
        kids = collections.defaultdict(list)
        for s in rows:
            if len(s) > depth:
                kids[s[depth]].append(s)
        for fn, sub in sorted(kids.items(), key=lambda kv: -len(kv[1])):
            if len(sub) >= TREE_MIN * total:
                print(f"{len(sub):7d} {100 * len(sub) / total:5.1f}%  {' ' * depth}{fn}")
                tree(sub, depth + 1)

    tree(samples, 0)


if __name__ == "__main__":
    main()
