"""Every pinned report of qgen, and a runner that checks them all cold.

A pin is a command, the sha256 of what it prints on stdout, and where it
runs besides this runner.  The command is either qgen's arguments (split
on single spaces) or the path of a demo script from the repository root.
The pins marked `tier1` also run in-process in tier-1: the front-door
pins in tests/test_cli.py, the golden pin in tests/test_acceptance.py.
The rest are too slow for tier-1 and run only here, in CI.

Run as a script, this module runs every pin cold, one at a time, as
`python -W error ...` in the caller's environment (so PYTHONPATH and
PYTHONHASHSEED reach the child).  It hashes the child's stdout as it
streams and reads the child's peak resident set size (MB = 10^6 bytes)
through a `python -S` trampoline, so that the peak is the pin's own and
not this runner's.  It prints one line per pin, and exits 1 if any pin
prints other bytes, exits nonzero, peaks over its bound, or did not run:

    PYTHONHASHSEED=1 PYTHONPATH=src python tests/pins.py

A report-format change edits the digests here, and perfbench's copy of
the golden one (GOLDEN_SHA256 in perfbench/workloads.py), which
tests/test_pins.py holds equal to GOLDEN.sha256.
"""

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Pin:
    command: str  # qgen's arguments, or a demo script's path (ends in .py)
    sha256: str
    tier1: bool = False
    max_rss_mb: float | None = None

    @property
    def argv(self) -> list[str]:
        return self.command.split(" ")


# sha256 of stdout per invocation and format; the invocations reach
# --at-q, --unnormalized, a residue row at N >= 5, a censored ">=M"
# valuation, the geometric sum at r = -1 (m = -1) on an exact and a
# modular level side by side, and a verify grid other than the default
# one (whose json report GOLDEN pins)
FRONT_DOOR = {
    "verify all --n-max 3 --alpha-max 2 --h-max 2": {
        "text": "c1b3c3f005ef73affc8f4405d07c326faaed398d702bcac1e5e649547feba0e1",
        "json": "76b43ef031cc9de880dc1165fa148c4a79d0b69e9816f0cadd99740fe652663e",
        "csv": "204e84f7c0a29c0cf09a426abceeb1f435fc56217232aeda48af912f2709fd39",
    },
    "table --n-max 5 --alpha 2 --h 3 --x=-1": {
        "text": "7df1d7a3f64142a2405496ae539d44e5d6cbcf933a464afe02b806dfcebb56d0",
        "json": "89dc7e49c9cac4b647bf1c5cda4ef2cc603bdfd77d5e3d5a1b34cbc3c4d9b605",
        "csv": "9439d57a7ef7ec06a089cbf9c8c6cbec874f9f1cce4aa93ea7fc5512b9c42abc",
    },
    "table --n-max 6 --alpha 1 --h 2 --x 2 --at-q 3/2": {
        "text": "a9244c9d58dd21f19c628e420fb7b92575987d050c1624143a57433eea96d3b2",
        "json": "507f2065b89522e2ca978414e76f10f6106ab22288458e394446c1519c73aa95",
        "csv": "d07215d03a4de57b515072c2fb1ac6dd967bf7c49e3924db983159f748585802",
    },
    "integral --p 3 --q 4 --m 1 --coeff=-2:1/2 --N 2,4,5 --unnormalized": {
        "text": "1122bbcbc89e4df75fba8a1a3cbef0a2fb676ba67607c1ab07006743d90c6428",
        "json": "a0190802b44e4f2637d5846192b820058414bfe9a06bf24f7b29e33cb57bfe06",
        "csv": "f14cb2e23fd64fa5be409a9940797f246c9c013af60ce4f12157fb6d59c790fa",
    },
    "integral --p 5 --q 6 --m 0 --coeff 3:-2/3 --N 1,6 --M 6": {
        "text": "425eb75a99b4644ca99df1e12a4534aa67763f6250c83b0780142435faa1d92f",
        "json": "14c9f4a1f008b9f3e47a90022889f61f4c836fa0b0607138dc1bc681afd28548",
        "csv": "ee5eb3841c19bd4e33c695339dc2e7113f35e2a59fd35db76792c08c6ff9d32c",
    },
    "integral --p 5 --q 6 --m 0 --coeff=-1:1 --N 4,5 --unnormalized": {
        "text": "2f7f2c59b4c8d26796b177383ccdc3d5701dfb34fb862abe5218b5adcee70ac8",
        "json": "2965f100a1311e7472a6c6770885d883f802ecdf4d29875d7c0b8f8b29c12e20",
        "csv": "3d3b37ce6b62d9128e587e54d509bce4d181ce248c0fc55cca73a3c4f52132a1",
    },
    "integral --p 7 --q 9/2 --m 2 --coeff=-3:2/5 --N 0,1,2,3 --unnormalized": {
        "text": "8faa9b9c5428023bf1a4d6bbaf2a891455fcb20ff913e5e208c64712874bb9b7",
        "json": "a80e003bd6e46e5828844c1dff11a7608fb5bd9c58b60b3dc50cc0f710378aa6",
        "csv": "f2c8ae80d972d8afc4e5f6db1033866307628bce5e06181cec75d233db1d6d73",
    },
    "bernstein --n 4 --alpha 2 --x 3": {
        "text": "36ee0c5c53bb2841a7f94bd06569656faa338d4100be4ff38f19651e0a075b52",
        "json": "47adf3c4704744476a50cffd983c7461f38322b118219aa8f95aa8ff143bf3dc",
        "csv": "b118a1f55e37a5308c4b12fb9d3d0d516a2cb98dc0250ac49800352b88ec177b",
    },
    "bernstein --n 3 --k 1 --x=-2": {
        "text": "4141568f5cfb5720a6f97016c4605e1bc203edb88cac98b3ddb9abeac0c1acd8",
        "json": "902e376a6720c5a08d31af2caef5e36cc25a1291a0659dc26bd331bedf7834ca",
        "csv": "083a018d4fd390cf9c54fa1bb6c006a441db4a85c2534d39b95492db55eea167",
    },
    # every k of a deep basis, away from x in {0, 1} and at x = 1
    "bernstein --n 24 --alpha 3 --x=-2": {
        "text": "5d38016eb58ed970fce4054e16c9255d68a5ddadb1d1dea5af7b361221d88d48",
        "json": "bc9e37b10f29c47200fcfe84368e5880fa942bf5b9d39643e0e7644c30f680f1",
        "csv": "c61151efb26e928f663c4376b04462bb458198f6c33a61f40036096b34f3c3d9",
    },
    "bernstein --n 24 --alpha 3 --x 1": {
        "text": "2b48fa588b446d29fa80110fcbba854285611ea9e2d18b796e8ff304d789c3eb",
        "json": "153b0c71a215407452466ad0056bbdfb8e6d0bc0e89b5b8cfaa8e00148e42ce9",
        "csv": "e23b32fccada59508f3db410d775a3929796c20ca2374d56a873847d2fe3081e",
    },
}

# the golden report, `verify all` with the default config: the same
# bytes whatever the representation, and under hash seeds 0 and 1, since
# the serializer's memo of sides is keyed by value and the records are
# written in sweep order, so set and dict iteration order never reaches
# the output
GOLDEN = Pin("verify all --format json",
             "77bd72c75de0b2aea75333cf2f9f8eb984169b6b8bc47b4149266438c5da4ddf", tier1=True)

PINS = (
    *(Pin(f"{args} --format {fmt}", digest, tier1=True)
      for args, digests in FRONT_DOOR.items() for fmt, digest in digests.items()),
    GOLDEN,
    # the default csv report; CI's "each theorem alone" step checks that
    # each theorem run alone prints exactly its rows of it
    Pin("verify all --format csv",
        "7d9cc2569fd2d5b71fee91289b3f6698a9df2d09541e89281d605e532efd1085"),
    # the --n-max 16, 20 and 30 json reports (10,148,080, 21,831,040 and
    # 102,622,638 bytes) reach longer numerators and larger Phi_d than the
    # default grid, where a reducer that cancels a factor it should not,
    # or misses one, changes bytes.  The --n-max 20 and 30 bounds guard
    # two memory cuts: the streamed write (built as one string, --n-max
    # 20 peaked near 135 MB) and the moment kernel's one cofactor table
    # (kept for every lcm, the tables took --n-max 20 to 65-68 MB and
    # --n-max 30 to 238-241 MB, where the runs now peak at 52-55 and
    # 170-173 MB on Pythons 3.10 to 3.13)
    Pin("verify all --n-max 16 --format json",
        "5c7ff9f12376aa4ca595b56590454d16cef51fceb6614b57dcbd5f60e7c01fe1"),
    Pin("verify all --n-max 20 --format json",
        "5198167a34ba4924cbfd17b45497559d4455b8b6735717a31516da2e72fd923d", max_rss_mb=60),
    Pin("verify all --n-max 30 --format json",
        "9de90138a5685c9092e59cc99a643da37e397d8ef02787740890bcc3453db472", max_rss_mb=200),
    # the integral checks at weights 4 to 6: they integrate
    # [1 - xi]_{q^-alpha}^n, a spec with a negative scale and sign -1, over
    # a prefactor with Phi_4, Phi_5 or Phi_6, which the default grid
    # (alpha <= 3) never builds.  Each peaks at 21-25 MB with one
    # cofactor table kept, 28-33 MB with one per lcm
    Pin("verify integral-reflect --n-max 12 --alpha-max 6 --h-max 4 --format json",
        "a16cb36ec448ff1af83e995246ebad964277c3e79cac4e567a8b19110741caa8", max_rss_mb=27),
    Pin("verify integral-shift --n-max 12 --alpha-max 6 --h-max 4 --format json",
        "acfd85d5cd45aa8a130d2abb35a4e4661248ed5844af25c1a7d8ff003b07fe26", max_rss_mb=27),
    # the table reports at --n-max 45 and 60 (alpha = h = 3, x = 2): the
    # umbral route at depth, cross-checked against the closed form, where
    # the integer Horner pass must keep every byte.  They peak at 29-31
    # and 50-52 MB (Python 3.11)
    Pin("table --n-max 45 --alpha 3 --h 3 --x=2 --format json",
        "aaabe8e8267736c1826df6a9d01af7c1a6e541293e916d0aef5816ee3c74c435", max_rss_mb=36),
    Pin("table --n-max 60 --alpha 3 --h 3 --x=2 --format json",
        "dfcc28cbf7236a43fd7fdf12971da95652791df350dbecd087b8983c2f54c040", max_rss_mb=60),
    # the demos use the public API; an API change that breaks one, or a
    # change to what one prints, fails here
    Pin("demos/genocchi_tables.py",
        "a7c72dfe05b75b93f04cc4cfe99caf6a8740a2a9d0362583203ccc7cfb189e41"),
    Pin("demos/identity_sweep.py",
        "e7fe5e9c24d11ea446b05097fe5af83fafb055489b2fcd2d243ffba212276193"),
    Pin("demos/padic_convergence.py",
        "1b988f2491d29324d23ac93f99577d1d09c78907d63265a3ecc807d69cea111d"),
)


# On Linux a child's ru_maxrss is at least the high-water mark of the
# process that spawned it: the child starts from that process's memory,
# and its exec keeps the mark.  So the runner spawns each pin from a
# small `python -S` process (about 10 MB), which waits for the pin and
# writes its exit code and ru_maxrss (KiB on Linux) to the fd argv[1]
TRAMPOLINE = """\
import os, sys
fd = int(sys.argv[1])
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_CLOSE, fd)])
_, status, usage = os.wait4(pid, 0)
os.write(fd, b"%d %d" % (os.waitstatus_to_exitcode(status), usage.ru_maxrss))
"""


def check(pin: Pin) -> tuple[float, list[str]]:
    """Run one pin cold; return its peak in MB and what failed (empty if it holds)."""
    if pin.command.endswith(".py"):
        argv = [sys.executable, "-W", "error", str(ROOT / pin.command)]
    else:
        argv = [sys.executable, "-W", "error", "-m", "qgen.cli", *pin.argv]
    digest = hashlib.sha256()
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as result:
        with subprocess.Popen([sys.executable, "-S", "-c", TRAMPOLINE, str(write_fd), *argv],
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              pass_fds=(write_fd,)) as proc:
            os.close(write_fd)
            for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                digest.update(chunk)
        reading = result.read().split()
    if proc.returncode or len(reading) != 2:
        return 0.0, [f"trampoline exit {proc.returncode}"]
    code, peak_kib = map(int, reading)
    peak_mb = peak_kib * 1024 / 1e6
    failures = []
    if code:
        failures.append(f"exit {code}")
    if digest.hexdigest() != pin.sha256:
        failures.append(f"sha256 {digest.hexdigest()}")
    if pin.max_rss_mb is not None and peak_mb > pin.max_rss_mb:
        failures.append(f"peak over {pin.max_rss_mb:g} MB")
    return peak_mb, failures


def run(pins) -> int:
    """Check each pin cold, one line each; 0 if every one held, else 1."""
    held = 0
    for pin in pins:
        peak_mb, failures = check(pin)
        line = f"{'FAIL' if failures else 'ok':4} {peak_mb:6.1f} MB  {pin.command}"
        if failures:
            line += f"  ({'; '.join(failures)})"
        print(line, flush=True)
        held += not failures
    print(f"{held} of {len(pins)} pins hold")
    return int(held != len(pins))


if __name__ == "__main__":
    sys.exit(run(PINS))
