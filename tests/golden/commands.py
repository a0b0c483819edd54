"""The commands whose stdout digests `cli_outputs.sha256` pins.

`golden_commands(root)` maps each output file name to the `orbidisk`
arguments that write it, with fan paths under `root`.  Run as a script from
the repository root, this file prints one command per line, the output file
name and then each argument, separated by tabs:

    python tests/golden/commands.py | while IFS=$'\\t' read -r name args; do
        orbidisk $args > "$out/$name"
    done

Listing the `suborbifold` commands resolves fans, so the script needs
`orbidisk` importable (`PYTHONPATH=src`).
"""

from __future__ import annotations

from pathlib import Path

P2Z3_CLASSES = (
    "ray:0", "ray:1", "ray:2",
    "box:-1,0", "box:-1,1", "box:0,-1", "box:0,1", "box:1,-1", "box:1,0",
)


def golden_commands(root: Path = Path(".")) -> dict[str, list[str]]:
    """Output name -> argument list of every pinned stdout digest."""
    fans = root / "fans"
    p2z3 = str(fans / "p2z3.json")
    cmds = {
        f"invariants-p2z3-{klass}.out": [
            "invariants", p2z3, "--class", klass, "--order", "20"
        ]
        for klass in P2Z3_CLASSES
    }
    cmds["verify-p2z3.out"] = ["verify-p2z3", "--amax", "10", "--bmax", "10"]
    # deeper windows, reaching larger denominators in the inversion
    cmds["invariants-p2z3-box:0,-1-order32.out"] = [
        "invariants", p2z3, "--class", "box:0,-1", "--order", "32"
    ]
    # the image of box:0,-1 under the reflection swapping the two sectors,
    # which the chart's inversion reads off by permuting tau
    cmds["invariants-p2z3-box:1,-1-order32.out"] = [
        "invariants", p2z3, "--class", "box:1,-1", "--order", "32"
    ]
    cmds["verify-p2z3-14.out"] = ["verify-p2z3", "--amax", "14", "--bmax", "14"]
    paths = [fans / f"{name}.json" for name in ("p2", "p1xp1", "f2", "p2z3")]
    paths += sorted((root / "perfbench" / "fans").glob("r*.json"))
    for path in paths:
        cmds[f"potential-{path.stem}.out"] = ["potential", str(path), "--order", "6"]
    # 3D orbifolds: the sector term of P(1,1,1,3) is the inverse of the
    # [C^3/Z3] mirror map, tau + tau^4/648 - 29 tau^7/3674160 + ...; mq is
    # the one fan whose cone walk pins two coordinates and splits its cosets
    # by the outside vectors they use
    for name, order in (("p1113", "16"), ("p2z3xp1", "8"), ("mq", "5")):
        cmds[f"potential-{name}-order{order}.out"] = [
            "potential", str(fans / f"{name}.json"), "--order", order
        ]
    cmds.update(_fan_fact_commands(root))
    return cmds


def _fan_fact_commands(root: Path) -> dict[str, list[str]]:
    """`validate` and `box` on every example fan; on each complete fan,
    `suborbifold` for ray 0 and for the first age-one box point.

    f3 is not semi-Fano: its `validate` and ray-0 chart exit 1 and are left
    out.
    """
    from orbidisk.fanfile import parse_fan_file
    from orbidisk.stacky import box_elements, is_complete

    paths = sorted((root / "fans").glob("*.json"))
    paths += sorted((root / "perfbench" / "fans").glob("*.json"))
    cmds = {}
    for path in paths:
        name = path.stem
        if name != "f3":
            cmds[f"validate-{name}.out"] = ["validate", str(path)]
        cmds[f"box-{name}.out"] = ["box", str(path)]
        fan = parse_fan_file(str(path)).resolve_fan()
        if not is_complete(fan):
            continue
        classes = [] if name == "f3" else ["ray:0"]
        age1 = [b.point for b in box_elements(fan) if b.age == 1]
        if age1:
            classes.append("box:" + ",".join(str(c) for c in age1[0]))
        for klass in classes:
            cmds[f"suborbifold-{name}-{klass}.out"] = [
                "suborbifold", str(path), "--class", klass
            ]
    return cmds


if __name__ == "__main__":
    for name, argv in golden_commands().items():
        print(name, *argv, sep="\t")
