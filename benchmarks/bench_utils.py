"""Helpers shared by the benchmark modules."""


def save_and_print(table, output_dir, name):
    """Persist a ResultTable as text+CSV and echo it to the terminal."""
    table.save(str(output_dir / f"{name}.txt"), fmt="text")
    table.save(str(output_dir / f"{name}.csv"), fmt="csv")
    print()
    print(table.to_text())


def regenerate(benchmark, output_dir, name, build, *args):
    """Build one artifact table (timed once), save it and print it."""
    table = benchmark.pedantic(build, args=args, rounds=1, iterations=1)
    save_and_print(table, output_dir, name)
    return table
