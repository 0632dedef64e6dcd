"""Record the seed-0 diagnostics rows every benchmark run is checked against.

    python3 perfbench/record_reference.py

Run this only on a commit whose solver output is the accepted baseline: the
rows of every workload become ``perfbench/ref/<workload>.csv``.
"""

from run import WORKLOAD_NAMES, bootstrap


def main():
    bootstrap()
    from pnpfem import run
    from pnpfem.diagnostics import write_csv
    from reference import ref_path
    from workloads import WORKLOADS

    for name in WORKLOAD_NAMES:
        rows = run(WORKLOADS[name].scenario(0)).all_reports()
        write_csv(ref_path(name), rows)
        print(f"{name}: {len(rows)} rows")


if __name__ == "__main__":
    main()
