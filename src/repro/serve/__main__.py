"""``python -m repro.serve`` — boot the multi-tenant serving front-end."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.serve.app import ServerConfig
from repro.serve.server import parse_bind, preload_names, serve_forever


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=(
            "Serve many warm scenario networks over HTTP/WebSocket "
            "(see docs/serving.md)."
        ),
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1:8750",
        help="HOST:PORT to listen on (port 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--tenants",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory of <name>.json ScenarioSpec files loadable as tenants",
    )
    parser.add_argument(
        "--preload",
        action="append",
        default=[],
        metavar="NAME[,NAME...]",
        help="tenant spec(s) to load at boot ('all' loads every spec)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="bound of each tenant's serialized update queue (429 beyond it)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=4,
        help="global budget of concurrently executing engine runs",
    )
    parser.add_argument(
        "--cold",
        action="store_true",
        help="serve sync specs on the in-process simulator instead of a warm pool",
    )
    parser.add_argument(
        "--retry-attempts",
        type=int,
        default=2,
        help="transient-failure retries per update run before a typed 503",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    options = build_parser().parse_args(argv)
    try:
        host, port = parse_bind(options.bind)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if options.preload and options.tenants is None:
        print("error: --preload needs --tenants DIR", file=sys.stderr)
        return 2
    config = ServerConfig(
        host=host,
        port=port,
        tenants_dir=options.tenants,
        queue_depth=options.queue_depth,
        max_workers=options.max_workers,
        warm=not options.cold,
        retry_attempts=options.retry_attempts,
        preload=preload_names(options.preload),
    )
    serve_forever(config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
