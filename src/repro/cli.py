"""Command-line interface: ``repro <command>``.

Commands cover the full reproduction workflow without writing Python:

* ``repro scenarios`` -- list the scenario registry;
* ``repro topology`` -- inspect a network preset;
* ``repro simulate`` -- run one policy and print the paper's metrics;
* ``repro evaluate`` -- the Table 2 grid over all baseline policies;
* ``repro fig6`` / ``repro fig10`` -- the perturbation experiments;
* ``repro fit-dbn`` -- learn DBN tables from random-policy episodes;
* ``repro trace`` -- record an episode trace to JSONL;
* ``repro config`` -- dump a preset's JSON (edit, then pass anywhere
  via ``--config``);
* ``repro serve`` -- the long-lived evaluation service (HTTP/JSON jobs,
  SQLite run store);
* ``repro submit`` -- send an evaluation/simulation job to a running
  server (optionally waiting for the result);
* ``repro runs list`` / ``repro runs show`` -- query the run store
  (works offline, straight from the SQLite file).

Every command accepts ``--scenario <id>`` (a registry entry, see
``repro scenarios``), ``--preset {paper,small,tiny}``, or ``--config
file.json``, plus ``--episodes``, ``--seed``, and ``--max-steps``;
``repro simulate --num-envs N`` fans episodes out over a vectorized
environment. Every vectorized command (``simulate``, ``ope record``,
and the jobs ``serve`` runs) lets the lane count pick the engine (sync
for one lane, batched for more); trajectories do not depend on the
engine, so there is no option to pick one. Quick CPU-budget runs and
full paper-scale runs use the same entry points.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.config import SimConfig, paper_network, small_network, tiny_network
from repro.config_io import config_from_dict, config_to_dict
from repro.defenders.catalogue import POLICY_NAMES, make_policy

__all__ = ["main", "build_parser"]

_PRESETS = {
    "paper": paper_network,
    "small": small_network,
    "tiny": tiny_network,
}


def _resolve_spec(args):
    """The ScenarioSpec named by --scenario, or None."""
    if getattr(args, "scenario", None):
        from repro.scenarios import get_scenario

        try:
            return get_scenario(args.scenario)
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]))
    return None


def _resolve_config(args) -> SimConfig:
    spec = _resolve_spec(args)
    if spec is not None:
        config = spec.build_config()
    elif getattr(args, "config", None):
        with open(args.config) as handle:
            config = config_from_dict(json.load(handle))
    else:
        config = _PRESETS[args.preset]()
    if getattr(args, "max_steps", None):
        config = config.with_tmax(min(config.tmax, args.max_steps))
    return config


def _build_env(args, config: SimConfig, seed: int | None = None):
    """One environment honouring --scenario's attacker, else the default."""
    import repro

    spec = _resolve_spec(args)
    if spec is not None:
        return spec.build_env(config=config, seed=seed)
    return repro.make_env(config, seed=seed)


def _build_vec_env(args, config: SimConfig, num_envs: int, seed: int):
    from repro.sim.vec_env import lockstep_env

    envs = [_build_env(args, config, seed=seed + i) for i in range(num_envs)]
    return lockstep_env(envs, base_seed=seed)


def _make_policy(name: str, config: SimConfig, seed: int,
                 dbn_path: str | None, qnet_path: str | None):
    return make_policy(name, seed, lambda: _load_tables(config, dbn_path, seed),
                       qnet_path)


def _load_tables(config: SimConfig, path: str | None, seed: int):
    from repro.dbn import DBNTables, fit_dbn

    if path:
        return DBNTables.load(path)
    import repro
    from repro.defenders import SemiRandomPolicy

    print("no --dbn file given; fitting tables on 4 random episodes...",
          file=sys.stderr)
    return fit_dbn(
        lambda: repro.make_env(config),
        lambda: SemiRandomPolicy(rate=5.0),
        episodes=4,
        seed=seed,
    )


# ----------------------------------------------------------------------
# command implementations
# ----------------------------------------------------------------------
def cmd_topology(args) -> int:
    from repro.net.topology import build_topology

    config = _resolve_config(args)
    topology = build_topology(config.topology)
    print(f"nodes: {topology.n_nodes}  plcs: {topology.n_plcs}  "
          f"devices: {len(topology.devices)}  vlans: {len(topology.vlans)}")
    for node in topology.nodes:
        print(f"  [{node.node_id:3d}] {node.name:<22} level={node.level} "
              f"vlan={node.home_vlan} ip={node.ip}")
    for device in topology.devices:
        print(f"  ({device.device_id:3d}) {device.name:<22} "
              f"{device.dtype.value} level={device.level}")
    return 0


def cmd_simulate(args) -> int:
    from repro.eval import evaluate_policy_vec, format_aggregate_table

    config = _resolve_config(args)
    policy = _make_policy(args.policy, config, args.seed, args.dbn, args.qnet)
    num_envs = max(1, args.num_envs)
    with _build_vec_env(args, config, num_envs, args.seed) as venv:
        aggregate, episodes = evaluate_policy_vec(
            venv, policy, args.episodes, seed=args.seed,
            max_steps=args.max_steps,
        )
    title = f"{args.episodes} episode(s)"
    if num_envs > 1:
        title += f", {num_envs} envs"
    print(format_aggregate_table({args.policy: aggregate}, title=title))
    if args.verbose:
        for metrics in episodes:
            print(f"  seed={metrics.seed} return="
                  f"{metrics.discounted_return:.1f} "
                  f"plcs_offline={metrics.final_plcs_offline} "
                  f"steps={metrics.steps}")
    return 0


def _baseline_policies(config: SimConfig, args) -> dict:
    from repro.defenders import (
        DBNExpertPolicy,
        PlaybookPolicy,
        SemiRandomPolicy,
    )

    tables = _load_tables(config, args.dbn, args.seed)
    return {
        "DBN Expert": DBNExpertPolicy(tables, seed=args.seed),
        "Playbook": PlaybookPolicy(),
        "Semi Random": SemiRandomPolicy(seed=args.seed),
    }


def cmd_evaluate(args) -> int:
    from repro.eval import format_aggregate_table, run_table2

    config = _resolve_config(args)
    results = run_table2(config, _baseline_policies(config, args),
                         episodes=args.episodes, seed=args.seed,
                         max_steps=args.max_steps)
    print(format_aggregate_table(results, title="Table 2 (baselines)"))
    return 0


def cmd_fig6(args) -> int:
    from repro.eval import format_sweep_table, run_fig6

    config = _resolve_config(args)
    sweep = run_fig6(config, _baseline_policies(config, args),
                     episodes=args.episodes, seed=args.seed,
                     max_steps=args.max_steps)
    for metric in ("final_plcs_offline", "avg_nodes_compromised"):
        print(format_sweep_table(sweep, metric, "cleanup eff.",
                                 title=f"Fig 6 -- {metric}"))
        print()
    return 0


def cmd_fig10(args) -> int:
    from repro.eval import format_aggregate_table, run_fig10

    config = _resolve_config(args)
    results = run_fig10(config, _baseline_policies(config, args),
                        episodes=args.episodes, seed=args.seed,
                        max_steps=args.max_steps)
    for apt_name, table in results.items():
        print(format_aggregate_table(table, title=f"Fig 10 -- {apt_name}"))
        print()
    return 0


def cmd_fit_dbn(args) -> int:
    from repro.dbn import fit_dbn
    from repro.defenders import SemiRandomPolicy

    config = _resolve_config(args)
    tables = fit_dbn(
        lambda: _build_env(args, config),
        lambda: SemiRandomPolicy(rate=5.0, seed=args.seed),
        episodes=args.episodes,
        seed=args.seed,
        max_steps=args.max_steps,
    )
    tables.save(args.out)
    print(f"wrote DBN tables to {args.out}")
    return 0


def cmd_trace(args) -> int:
    from repro.sim.trace import record_episode

    config = _resolve_config(args)
    policy = _make_policy(args.policy, config, args.seed, args.dbn, args.qnet)
    env = _build_env(args, config, seed=args.seed)
    trace = record_episode(env, policy, seed=args.seed,
                           max_steps=args.max_steps)
    trace.to_jsonl(args.out)
    print(f"wrote {len(trace)}-step trace ({trace.total_alerts} alerts, "
          f"total reward {trace.total_reward:.1f}) to {args.out}")
    return 0


def cmd_config(args) -> int:
    config = _resolve_config(args)
    print(json.dumps(config_to_dict(config), indent=2, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def cmd_serve(args) -> int:
    """Run the evaluation service until SIGINT/SIGTERM or POST /shutdown."""
    import asyncio
    import signal

    from repro.serve import EvalService, ServeServer

    async def _main() -> None:
        service = EvalService(
            args.db,
            max_queue=args.max_queue,
            workers=args.workers,
            requeue_interrupted=args.requeue_interrupted,
        )
        server = ServeServer(service, host=args.host, port=args.port)
        await server.start()
        print(f"repro serve listening on http://{server.host}:{server.port}")
        print(f"  run store: {args.db}  "
              f"max queue: {args.max_queue}  job workers: {args.workers}",
              file=sys.stderr)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await server.serve_forever()
        print(f"drained; {service.store.path} holds "
              f"{len(service.jobs())} run(s) from this session",
              file=sys.stderr)

    asyncio.run(_main())
    return 0


def _submit_payload(args) -> dict:
    """The job JSON for ``repro submit`` (spec-by-id or inline spec)."""
    payload: dict = {
        "kind": args.kind,
        "policy": args.policy,
        "episodes": args.episodes,
        "seed": args.seed,
    }
    if args.scenario:
        payload["scenario"] = args.scenario
    else:
        # inline-spec submission: bridge the preset/--config into a
        # ScenarioSpec and ship it in the payload itself
        from repro.scenarios.serialization import spec_to_dict
        from repro.scenarios.spec import spec_for_config

        config = _resolve_config(args)
        try:
            spec = spec_for_config(config, f"submit-{args.preset}")
        except ValueError as exc:
            raise SystemExit(
                f"cannot express this config as an inline scenario: {exc}"
            )
        payload["spec"] = spec_to_dict(spec)
    if args.max_steps:
        payload["max_steps"] = args.max_steps
    if args.num_envs > 1:
        payload["num_envs"] = args.num_envs
    if args.tag:
        payload["tags"] = list(args.tag)
    if args.dbn:
        payload["dbn"] = args.dbn
    if args.qnet:
        payload["qnet"] = args.qnet
    return payload


def cmd_submit(args) -> int:
    from repro.serve.client import (
        JobFailedError,
        ServeClient,
        ServeError,
        ServeQueueFullError,
    )

    client = ServeClient(args.host, args.port)
    try:
        job = client.submit(_submit_payload(args))
    except ServeQueueFullError as exc:
        raise SystemExit(f"server busy (backpressure): {exc}")
    except ServeError as exc:
        raise SystemExit(f"submission rejected: {exc}")
    except (ConnectionRefusedError, OSError) as exc:
        raise SystemExit(
            f"no server at {args.host}:{args.port} ({exc}); "
            "start one with 'repro serve'"
        )
    print(f"job {job['job_id']} {job['status']} "
          f"({job['kind']} of {job['scenario']} / {job['policy']})")
    if not args.wait:
        return 0
    try:
        job = client.wait(job["job_id"], timeout=args.timeout)
    except JobFailedError as exc:
        job = exc.job
        print(f"job {job['job_id']} finished: {job['status']}"
              + (f" ({job['error']})" if job.get("error") else ""))
        return 1
    print(f"job {job['job_id']} finished: {job['status']}")
    for name, value in (job.get("metrics") or {}).items():
        if isinstance(value, (list, tuple)) and len(value) == 2:
            print(f"  {name:<22} {value[0]:>12.2f} +- {value[1]:.2f}")
        elif isinstance(value, float):
            print(f"  {name:<22} {value:>12.2f}")
        else:
            print(f"  {name:<22} {value}")
    return 0


def _open_store(args):
    import os

    from repro.serve.store import RunStore

    if not os.path.exists(args.db):
        raise SystemExit(
            f"no run store at {args.db!r} (a server creates one; "
            "point --db at its file)"
        )
    return RunStore(args.db)


def cmd_runs_list(args) -> int:
    with _open_store(args) as store:
        runs = store.list_runs(scenario=args.scenario, status=args.status,
                               kind=args.kind, tag=args.tag,
                               limit=args.limit)
    if not runs:
        print("no matching runs")
        return 1
    print(f"{'run':<14} {'kind':<9} {'status':<10} {'scenario':<26} "
          f"{'policy':<9} {'seed':>5} {'eps':>4} {'wall':>8}  tags")
    for run in runs:
        wall = f"{run['wall_time']:.2f}s" if run["wall_time"] else "-"
        print(f"{run['run_id']:<14} {run['kind']:<9} {run['status']:<10} "
              f"{str(run['scenario_id']):<26} {str(run['policy']):<9} "
              f"{str(run['seed']):>5} {str(run['episodes']):>4} {wall:>8}  "
              f"{','.join(run['tags'])}")
    return 0


def cmd_runs_show(args) -> int:
    with _open_store(args) as store:
        run = store.get_run(args.run_id)
        episodes = store.episodes_of(args.run_id)
    if run is None:
        raise SystemExit(f"unknown run {args.run_id!r}")
    for key in ("run_id", "kind", "status", "scenario_id", "policy", "seed",
                "episodes", "code_version", "wall_time", "error"):
        if run.get(key) is not None:
            print(f"{key:<14} {run[key]}")
    if run.get("tags"):
        print(f"{'tags':<14} {','.join(run['tags'])}")
    if run.get("metrics"):
        print("metrics")
        for name, value in run["metrics"].items():
            if isinstance(value, list) and len(value) == 2:
                print(f"  {name:<22} {value[0]:>12.2f} +- {value[1]:.2f}")
            else:
                print(f"  {name:<22} {value}")
    if episodes:
        print(f"episode records ({len(episodes)})")
        for episode in episodes:
            wall = (f"{episode['wall_time']:.3f}s"
                    if episode["wall_time"] is not None else "-")
            print(f"  [{episode['episode_index']:>3}] seed="
                  f"{episode['seed']} wall={wall} {episode['detail']}")
    return 0


_OPE_QNET_COMPACT = dict(d_model=16, n_heads=2, encoder_hidden=32,
                         head_hidden=32)


def _ope_qnet_config(args=None, meta: dict | None = None):
    """The Q-network geometry for OPE: compact by default, exact when
    replaying a trace (``meta`` wins; a user ``--qnet`` file implies the
    full default geometry its training used)."""
    from repro.rl import QNetConfig

    if meta is not None and meta.get("qnet_config"):
        return QNetConfig(**meta["qnet_config"])
    if args is not None and getattr(args, "qnet", None):
        return QNetConfig()
    return QNetConfig(**_OPE_QNET_COMPACT)


def cmd_ope_record(args) -> int:
    """Stream logged episodes from vectorized rollouts into a trace dir."""
    import dataclasses

    from repro.nn import load_state, save_state
    from repro.rl import AttentionQNetwork
    from repro.validation import StochasticQPolicy, TraceWriter, \
        record_episodes_vec

    config = _resolve_config(args)
    tables = _load_tables(config, args.dbn, args.seed)
    qnet_config = _ope_qnet_config(args)
    qnet = AttentionQNetwork(qnet_config, seed=args.seed)
    if args.qnet:
        load_state(qnet, args.qnet)

    def behavior_factory(ep: int) -> StochasticQPolicy:
        return StochasticQPolicy(qnet, tables,
                                 temperature=args.temperature,
                                 epsilon=args.epsilon,
                                 seed=args.seed + ep)

    meta = {
        "config": config_to_dict(config),
        "scenario": getattr(args, "scenario", None),
        "qnet_config": dataclasses.asdict(qnet_config),
        "qnet_seed": args.seed,
        "behavior": {"policy": "stochastic-q",
                     "temperature": args.temperature,
                     "epsilon": args.epsilon},
        "episodes": args.episodes,
        "seed": args.seed,
    }
    venv = _build_vec_env(args, config, args.num_envs, args.seed)
    try:
        with TraceWriter(args.out, shard_rows=args.shard_rows,
                         meta=meta) as writer:
            transitions = record_episodes_vec(
                venv, behavior_factory, args.episodes, writer,
                seed=args.seed,
            )
            # provenance next to the shards: the exact tables and
            # weights a later `repro ope report` must replay against
            tables.save(f"{args.out}/dbn.npz")
            save_state(qnet, f"{args.out}/qnet.npz")
    finally:
        venv.close()
    print(f"recorded {args.episodes} episodes / {transitions} transitions "
          f"to {args.out} ({writer.episodes_written} episodes in manifest)")
    return 0


def cmd_ope_report(args) -> int:
    """Run the full estimator suite over an on-disk trace."""
    import os

    import repro
    from repro.dbn import DBNTables
    from repro.nn import load_state
    from repro.rl import AttentionQNetwork
    from repro.validation import StochasticQPolicy, TraceDataset, run_ope_suite

    dataset = TraceDataset(args.trace)
    meta = dataset.meta
    if not meta.get("config"):
        raise SystemExit(
            f"trace {args.trace!r} carries no config in its manifest meta; "
            "re-record it with `repro ope record`"
        )
    config = config_from_dict(meta["config"])
    env = repro.make_env(config, seed=0)  # topology host for binding

    dbn_path = args.dbn or os.path.join(args.trace, "dbn.npz")
    if not os.path.exists(dbn_path):
        raise SystemExit(f"no DBN tables at {dbn_path!r} (pass --dbn)")
    tables = DBNTables.load(dbn_path)

    qnet_config = _ope_qnet_config(args, meta)
    qnet = AttentionQNetwork(qnet_config, seed=int(meta.get("qnet_seed", 0)))
    qnet.bind_topology(env.topology)
    qnet_path = args.qnet or os.path.join(args.trace, "qnet.npz")
    if os.path.exists(qnet_path):
        load_state(qnet, qnet_path)
    target = StochasticQPolicy(qnet, tables,
                               temperature=args.target_temperature,
                               epsilon=args.target_epsilon,
                               seed=args.seed)
    eval_qnet = AttentionQNetwork(qnet_config, seed=args.fqe_seed)
    eval_qnet.bind_topology(env.topology)

    report = run_ope_suite(
        dataset, target, eval_qnet, clip=args.clip, alpha=args.alpha,
        n_boot=args.n_boot, bootstrap_seed=args.bootstrap_seed,
        fqe_options={"iterations": args.fqe_iterations,
                     "epochs_per_iteration": args.fqe_epochs,
                     "chunk_episodes": args.fqe_chunk,
                     "seed": args.fqe_seed},
    )
    print(f"{dataset.num_transitions} transitions / {len(dataset)} episodes "
          f"from {args.trace} (clip={args.clip}, alpha={args.alpha})")
    for estimate in report.estimates.values():
        ess = "" if estimate.ess != estimate.ess \
            else f"  ESS {estimate.ess:.1f}"
        print(f"  {estimate.method:<4} {estimate.estimate:>12.3f}  "
              f"[{estimate.lower:.3f}, {estimate.upper:.3f}]{ess}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"wrote report JSON to {args.json}")
    if args.store:
        from repro.serve.store import RunStore

        with RunStore(args.store) as store:
            run_id = store.create_run(
                "ope-report", run_id=args.run_id,
                scenario_id=meta.get("scenario"),
                policy="stochastic-q", seed=args.seed,
                episodes=report.episodes,
                detail={"trace": str(args.trace), "clip": args.clip,
                        "alpha": args.alpha,
                        "target_temperature": args.target_temperature,
                        "target_epsilon": args.target_epsilon},
                status="queued",
            )
            store.mark_running(run_id)
            store.finish_run(run_id, metrics=report.to_dict())
        print(f"run_id={run_id}")
    return 0


def cmd_ope_promote(args) -> int:
    """Judge a candidate ope-report run against a baseline. Exit 0 only
    on a ``promote`` verdict, 1 on ``hold`` (the CI gate contract);
    unusable inputs (unknown run, wrong run kind, missing estimate)
    exit 2 so a gating job cannot mistake an operator error for a
    hold."""
    from repro.serve.promotion import PromotionError, promote_checkpoint

    try:
        baseline: str | float = float(args.baseline)
    except ValueError:
        baseline = args.baseline
    args.db = args.store
    with _open_store(args) as store:
        try:
            decision = promote_checkpoint(
                store, args.run_id, baseline, estimator=args.estimator,
                min_margin=args.min_margin,
            )
        except PromotionError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps(decision, indent=1, sort_keys=True))
    else:
        against = (decision["baseline_run_id"]
                   or f"value {decision['baseline_lower']:.3f}")
        print(f"{decision['verdict']}: candidate {args.run_id} "
              f"{decision['estimator']} lower bound "
              f"{decision['candidate_lower']:.3f} vs baseline {against} "
              f"(margin {decision['min_margin']:.3f}) "
              f"[{decision['promotion_id']}]")
    return 0 if decision["verdict"] == "promote" else 1


def cmd_check(argv: list[str]) -> int:
    """Static-analysis gates: AST enforcement of RNG discipline and
    import layering (see README "Static analysis gates"). The analyzer
    owns its flags, so ``repro check`` hands its arguments over
    unparsed."""
    from repro.analysis.runner import main as analysis_main

    return analysis_main(argv)


def cmd_scenarios(args) -> int:
    from repro.scenarios import list_scenarios

    specs = list_scenarios(tag=args.tag)
    if not specs:
        print(f"no scenarios tagged {args.tag!r}")
        return 1
    print(f"{'id':<26} {'network':<8} {'attacker':<14} {'reward':<15} tags")
    for spec in specs:
        attacker = spec.attacker if spec.attacker != "fsm" else (
            f"{spec.profile}:{spec.objective}/{spec.vector}"
            if spec.objective else f"{spec.profile}:sampled"
        )
        print(f"{spec.scenario_id:<26} {spec.network:<8} {attacker:<14} "
              f"{spec.reward_variant:<15} {','.join(spec.tags)}")
        if args.verbose and spec.description:
            print(f"    {spec.description}")
    return 0


# ----------------------------------------------------------------------
def _add_common(parser: argparse.ArgumentParser,
                episodes_default: int = 2) -> None:
    parser.add_argument("--scenario", default=None,
                        help="registered scenario id (see 'repro scenarios'; "
                             "overrides --preset/--config)")
    parser.add_argument("--preset", choices=sorted(_PRESETS), default="small",
                        help="network preset (default: small)")
    parser.add_argument("--config", help="JSON config file (overrides preset)")
    parser.add_argument("--episodes", type=int, default=episodes_default)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-steps", type=int, default=None,
                        help="cap episode length (default: config tmax)")
    parser.add_argument("--dbn", default=None,
                        help="DBN tables .npz (fit on the fly if omitted)")
    parser.add_argument("--qnet", default=None,
                        help="trained Q-network .npz for the acso policy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Autonomous Attack Mitigation for "
                    "Industrial Control Systems' (DSN 2022).",
    )
    from repro import __version__

    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="print a network inventory")
    _add_common(p)
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("simulate", help="run one defender policy")
    _add_common(p)
    p.add_argument("--policy", default="playbook",
                   choices=POLICY_NAMES)
    p.add_argument("--num-envs", type=int, default=1,
                   help="fan episodes over N vectorized environments")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scenarios", help="list the scenario registry")
    p.add_argument("--tag", default=None,
                   help="only scenarios carrying this tag")
    p.add_argument("--verbose", action="store_true",
                   help="include descriptions")
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("evaluate", help="Table 2 over baseline policies")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fig6", help="cleanup-effectiveness sweep")
    _add_common(p)
    p.set_defaults(func=cmd_fig6)

    p = sub.add_parser("fig10", help="APT1 vs APT2 robustness")
    _add_common(p)
    p.set_defaults(func=cmd_fig10)

    p = sub.add_parser("fit-dbn", help="fit DBN tables from random episodes")
    _add_common(p, episodes_default=8)
    p.add_argument("--out", default="dbn_tables.npz")
    p.set_defaults(func=cmd_fit_dbn)

    p = sub.add_parser("trace", help="record an episode trace to JSONL")
    _add_common(p, episodes_default=1)
    p.add_argument("--policy", default="playbook",
                   choices=POLICY_NAMES)
    p.add_argument("--out", default="episode_trace.jsonl")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("config", help="print a preset as editable JSON")
    _add_common(p)
    p.set_defaults(func=cmd_config)

    p = sub.add_parser(
        "serve",
        help="run the evaluation service (HTTP/JSON jobs, SQLite run store)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="listen port (0 picks an ephemeral one; default: 8642)")
    p.add_argument("--db", default="repro_runs.sqlite",
                   help="SQLite run-store path (default: repro_runs.sqlite)")
    p.add_argument("--max-queue", type=int, default=64,
                   help="queued-job limit before submissions get 429 "
                        "(default: 64)")
    p.add_argument("--workers", type=int, default=1,
                   help="concurrent job executors (default: 1)")
    p.add_argument("--requeue-interrupted", action="store_true",
                   dest="requeue_interrupted",
                   help="resubmit runs a crashed server left 'running' "
                        "(they are always marked 'interrupted' at startup)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="send a job to a running server")
    _add_common(p, episodes_default=1)
    p.add_argument("--kind", default="evaluate",
                   choices=("evaluate", "simulate"))
    p.add_argument("--policy", default="playbook",
                   choices=POLICY_NAMES)
    p.add_argument("--num-envs", type=int, default=1,
                   help="fan the job's episodes over N vector-env lanes")
    p.add_argument("--tag", action="append", default=None, metavar="TAG",
                   help="attach a tag to the recorded run (repeatable)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--wait", action="store_true",
                   help="poll until the job finishes and print its metrics")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="--wait limit in seconds (default: 300)")
    p.set_defaults(func=cmd_submit)

    # listed here for `repro --help`; main() routes `check` to the
    # analyzer's own parser before this one runs
    sub.add_parser(
        "check",
        help="static-analysis gates (RNG discipline, forbidden imports)",
        add_help=False,
    )

    p = sub.add_parser(
        "ope", help="offline policy evaluation over recorded traces"
    )
    ope_sub = p.add_subparsers(dest="ope_command", required=True)

    q = ope_sub.add_parser(
        "record", help="record logged episodes into a columnar trace dir"
    )
    _add_common(q, episodes_default=4)
    q.add_argument("--out", required=True,
                   help="trace directory to create (must not exist)")
    q.add_argument("--num-envs", type=int, default=4)
    q.add_argument("--shard-rows", type=int, default=65536,
                   help="rotate shards at this many records (default 65536)")
    q.add_argument("--temperature", type=float, default=1.0,
                   help="behaviour softmax temperature (default 1.0)")
    q.add_argument("--epsilon", type=float, default=0.3,
                   help="behaviour uniform-mixture weight (default 0.3)")
    q.set_defaults(func=cmd_ope_record)

    q = ope_sub.add_parser(
        "report", help="run the DM/DR/IS/WIS/PDIS + FQE suite over a trace"
    )
    q.add_argument("trace", help="trace directory from `repro ope record`")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--dbn", default=None,
                   help="DBN tables .npz (default: the trace's dbn.npz)")
    q.add_argument("--qnet", default=None,
                   help="target Q-network .npz (default: the trace's "
                        "qnet.npz)")
    q.add_argument("--target-temperature", type=float, default=0.25)
    q.add_argument("--target-epsilon", type=float, default=0.05)
    q.add_argument("--clip", type=float, default=None,
                   help="importance-ratio clip (default: none)")
    q.add_argument("--alpha", type=float, default=0.05)
    q.add_argument("--n-boot", type=int, default=2000)
    q.add_argument("--bootstrap-seed", type=int, default=0)
    q.add_argument("--fqe-iterations", type=int, default=3)
    q.add_argument("--fqe-epochs", type=int, default=1)
    q.add_argument("--fqe-chunk", type=int, default=64)
    q.add_argument("--fqe-seed", type=int, default=0)
    q.add_argument("--json", default=None,
                   help="write the report JSON to this file")
    q.add_argument("--store", default=None,
                   help="record an ope-report run in this run store")
    q.add_argument("--run-id", default=None,
                   help="run id for --store (default: random)")
    q.set_defaults(func=cmd_ope_report)

    q = ope_sub.add_parser(
        "promote", help="compare CI lower bounds; exit 0 only on 'promote'"
    )
    q.add_argument("run_id", help="candidate ope-report run id")
    q.add_argument("baseline",
                   help="baseline ope-report run id, or a number (fixed "
                        "value floor)")
    q.add_argument("--store", default="repro_runs.sqlite")
    q.add_argument("--estimator", default="DR",
                   choices=("DM", "FQE", "DR", "OIS", "WIS", "PDIS"))
    q.add_argument("--min-margin", type=float, default=0.0)
    q.add_argument("--json", action="store_true",
                   help="print the decision as JSON")
    q.set_defaults(func=cmd_ope_promote)

    p = sub.add_parser("runs", help="query the run store")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)

    q = runs_sub.add_parser("list", help="list recorded runs, newest first")
    q.add_argument("--db", default="repro_runs.sqlite")
    q.add_argument("--scenario", default=None)
    q.add_argument("--status", default=None,
                   choices=("queued", "running", "done", "error", "cancelled"))
    q.add_argument("--kind", default=None,
                   choices=("evaluate", "simulate", "ope-report"))
    q.add_argument("--tag", default=None)
    q.add_argument("--limit", type=int, default=50)
    q.set_defaults(func=cmd_runs_list)

    q = runs_sub.add_parser("show", help="one run with its episode records")
    q.add_argument("run_id")
    q.add_argument("--db", default="repro_runs.sqlite")
    q.set_defaults(func=cmd_runs_show)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["check"]:
        return cmd_check(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
