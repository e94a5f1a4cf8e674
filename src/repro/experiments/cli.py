"""Paper table/figure regeneration behind one callable surface.

``python -m repro <experiment>`` dispatches here (see
``repro.__main__``), and the experiment-campaign layer (``repro.exp``)
drives the same code programmatically through :func:`run_from_config`
instead of shelling out — one implementation, two front ends.
"""

from __future__ import annotations

import argparse

from repro import experiments as ex
from repro.experiments.common import ContextScale
from repro.recover.configio import decode

#: Analytic experiments: pure closed-form/simulation reports, no training.
ANALYTIC = ("fig1", "fig11e", "fig12", "fig13a", "fig13b", "fig13c",
            "table5", "sec7", "qoe", "fps")
#: Training-dependent experiments (share one ExperimentContext per scale).
TRAINED = ("table1", "fig8a", "table2", "table3", "table4", "fig15",
           "all-trained")

SCALES = ("tiny", "bench")


def run_analytic(name: str) -> str:
    errors = ex.paper_reference_errors(0.2)
    if name == "fig1":
        return ex.format_fig1(ex.run_fig1())
    if name == "fig11e":
        return ex.format_fig11e(ex.run_fig11e())
    if name == "fig12":
        return ex.format_fig12(ex.run_fig12(errors))
    if name == "fig13a":
        return ex.format_fig13a(ex.run_fig13a())
    if name == "fig13b":
        return ex.format_fig13b(ex.run_fig13b(errors))
    if name == "fig13c":
        return ex.format_fig13c(ex.run_fig13c(errors))
    if name == "table5":
        return ex.format_table5(ex.run_table5())
    if name == "sec7":
        return ex.format_accelerator_pa(ex.run_accelerator_pa())
    if name == "qoe":
        return ex.format_latency_qoe(ex.run_latency_qoe(errors))
    if name == "fps":
        return ex.format_fps(ex.run_fps(errors))
    raise KeyError(name)


def run_trained(name: str, scale: str, seed: int) -> str:
    context = ex.get_context(
        ContextScale.tiny() if scale == "tiny" else ContextScale.bench(), seed=seed
    )
    pieces = []
    if name in ("table1", "fig8a", "all-trained"):
        result = ex.run_table1(context)
        if name in ("table1", "all-trained"):
            pieces.append(ex.format_table1(result))
        if name in ("fig8a", "all-trained"):
            pieces.append(ex.format_fig8a(result))
    if name in ("table2", "all-trained"):
        pieces.append(ex.format_table2(ex.run_table2(context)))
    if name in ("table3", "all-trained"):
        pieces.append(ex.format_table3(ex.run_table3(context)))
    if name in ("table4", "all-trained"):
        pieces.append(ex.format_table4(ex.run_table4(context)))
    if name in ("fig15", "all-trained"):
        pieces.append(ex.format_fig15(ex.run_fig15(context)))
    if not pieces:
        raise KeyError(name)
    return "\n\n".join(pieces)


def run_experiment(name: str, scale: str = "tiny", seed: int = 0) -> str:
    """One experiment (or ``all-analytic``) -> its formatted report text."""
    if name == "all-analytic":
        return "\n\n".join(run_analytic(n) for n in ANALYTIC)
    if name in ANALYTIC:
        return run_analytic(name)
    if name in TRAINED:
        return run_trained(name, scale, seed)
    raise KeyError(name)


# ----------------------------------------------------------------------
# Campaign entry point (repro.exp)
# ----------------------------------------------------------------------
def resolve_run_config(params: dict) -> dict:
    """Validate campaign params -> the fully resolved canonical dict."""
    params = dict(params)
    name = decode(str, params.pop("experiment", ""), "experiment")
    scale = decode(str, params.pop("scale", "tiny"), "scale")
    seed = decode(int, params.pop("seed", 0), "seed")
    if params:
        raise ValueError(
            f"unknown paper-experiment params: {sorted(params)} "
            "(expected: experiment, scale, seed)"
        )
    if name not in (*ANALYTIC, *TRAINED, "all-analytic"):
        raise ValueError(
            f"unknown experiment {name!r}; choose from "
            f"{(*ANALYTIC, *TRAINED, 'all-analytic')}"
        )
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    return {
        "kind": "paper",
        "config": {"experiment": name, "scale": scale, "seed": seed},
    }


def run_from_config(params: dict) -> str:
    """Campaign entry point: params dict -> the report text."""
    config = resolve_run_config(params)["config"]
    return run_experiment(config["experiment"], config["scale"], config["seed"])


# ----------------------------------------------------------------------
# CLI (the default ``python -m repro`` command)
# ----------------------------------------------------------------------
def build_parser(description: "str | None" = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=description or __doc__
    )
    parser.add_argument(
        "experiment",
        choices=(*ANALYTIC, *TRAINED, "all-analytic"),
        help="which paper table/figure to regenerate",
    )
    parser.add_argument("--scale", choices=SCALES, default="tiny")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: "list[str] | None" = None,
         description: "str | None" = None) -> int:
    args = build_parser(description).parse_args(argv)
    print(run_experiment(args.experiment, args.scale, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
