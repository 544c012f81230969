"""Helpers shared by the benchmark modules."""

from repro.experiments.results import full_scale


def scaled(config_class):
    """An experiment's configuration at the size this session runs at:
    ``paper_scale()`` under ``REPRO_FULL=1`` — exactly what the CLI's
    ``--full`` runs — else ``scaled_down()``."""
    if full_scale():
        return config_class.paper_scale()
    return config_class.scaled_down()


def save_and_print(table, output_dir, name):
    """Persist a ResultTable as text+CSV and echo it to the terminal."""
    table.save(str(output_dir / f"{name}.txt"), fmt="text")
    table.save(str(output_dir / f"{name}.csv"), fmt="csv")
    print()
    print(table.to_text())
