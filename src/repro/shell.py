"""An interactive SQL shell over a repro Database.

Run ``python -m repro`` for an empty database, or
``python -m repro --demo`` to start with the Emp/Dept demo data loaded.

Statements beyond SELECT:

    EXPLAIN <select>            show the optimized physical plan
    EXPLAIN ANALYZE <select>    run it; estimated vs. actual per operator
    PREPARE <name> AS <select>  optimize once (use ? for parameters)
    EXECUTE <name> (v, ...)     run a prepared statement with values
    DEALLOCATE <name>           drop a prepared statement
    INSERT / UPDATE / DELETE    transactional DML (autocommit by default)
    BEGIN / COMMIT / ROLLBACK   explicit transactions (snapshot isolation)

Meta-commands (backslash-prefixed):

    \\help               this message
    \\tables             list tables with row/page counts
    \\schema <table>     column definitions
    \\explain <sql>      show the optimized physical plan (no execution)
    \\trace <sql>        run and show the rewrite-rule trace
    \\naive <sql>        run through the reference interpreter
    \\analyze            recollect statistics for every table
    \\metrics            cumulative query/plan-cache/timing counters
    \\feedback           observed selectivities learned from executions
    \\feedback clear     forget all learned selectivities
    \\timeout <ms>       set the per-query wall-clock budget (0 = off)
    \\admission          admission-control status (slots, queue, breaker)
    \\admission on [n]   enable admission control (n slots; default 8)
    \\admission off      disable admission control
    \\admission tenant <name>     set this session's tenant
    \\admission priority <class>  set this session's priority (high|normal|low)
    \\columnar           show whether columnar vector kernels are active
    \\columnar on|off    columnar numpy kernels vs row-tuple batches
    \\budget             show the current per-query resource budget
    \\reopt              show adaptive re-optimization status and counters
    \\reopt on|off       enable/disable mid-query re-optimization
    \\reopt max <n>      cap the re-optimizations allowed per query
    \\reopt factor <x>   set the validity-range width factor
    \\quit               exit

Ctrl-C while a query is running cancels that query (via the engine's
cancellation token) and keeps the session alive.
"""

from __future__ import annotations

import signal
import sys
from dataclasses import replace
from typing import List, Optional

from repro.core.optimizer import Database
from repro.engine.adaptive import AdaptiveConfig
from repro.engine.governor import QueryBudget
from repro.errors import ReproError

_HELP = __doc__


class Shell:
    """A line-oriented REPL; parsing stops at a trailing semicolon or
    a meta-command."""

    def __init__(self, db: Optional[Database] = None) -> None:
        self.db = db or Database()

    # ------------------------------------------------------------------
    def run_command(self, text: str) -> str:
        """Execute one command; returns the printable response."""
        text = text.strip().rstrip(";").strip()
        if not text:
            return ""
        if text.startswith("\\"):
            return self._meta(text)
        return self._query(text)

    def _meta(self, text: str) -> str:
        parts = text.split(None, 1)
        command = parts[0].lstrip("\\").lower()
        argument = parts[1] if len(parts) > 1 else ""
        if command in ("help", "h", "?"):
            return _HELP
        if command in ("quit", "q", "exit"):
            raise EOFError
        if command == "tables":
            lines = []
            for name in self.db.catalog.table_names():
                table = self.db.catalog.table(name)
                lines.append(
                    f"  {name:24s} {table.row_count:8d} rows "
                    f"{table.page_count:6d} pages"
                )
            return "\n".join(lines) if lines else "(no tables)"
        if command == "schema":
            if not argument:
                return "usage: \\schema <table>"
            schema = self.db.catalog.schema(argument)
            lines = [
                f"  {column.name:20s} {column.col_type.value:8s}"
                f"{'' if column.nullable else '  NOT NULL'}"
                for column in schema.columns
            ]
            if schema.primary_key:
                lines.append(f"  PRIMARY KEY ({', '.join(schema.primary_key)})")
            return "\n".join(lines)
        if command == "explain":
            if not argument:
                return "usage: \\explain <sql>"
            return self.db.explain(argument)
        if command == "trace":
            result = self.db.sql(argument)
            return (
                f"rewrites: {result.rewrite_trace}\n"
                + self._format_rows(result.column_names, result.rows)
            )
        if command == "naive":
            schema, rows, stats = self.db.naive(argument)
            names = [name for _alias, name in schema.slots]
            return (
                self._format_rows(names, rows)
                + f"\n({stats.inner_evaluations} inner evaluations, "
                f"{stats.rows_produced} rows of interpreter work)"
            )
        if command == "analyze":
            self.db.analyze()
            return "statistics collected"
        if command == "metrics":
            return self.db.metrics.format()
        if command == "feedback":
            feedback = self.db.feedback
            if feedback is None:
                return "cardinality feedback is disabled"
            if argument.strip().lower() == "clear":
                feedback.clear()
                return "feedback store cleared"
            if argument:
                return "usage: \\feedback [clear]"
            return feedback.format()
        if command == "timeout":
            if not argument:
                return "usage: \\timeout <milliseconds>  (0 disables)"
            try:
                millis = float(argument)
            except ValueError:
                return f"not a number: {argument!r}"
            timeout = millis / 1000.0 if millis > 0 else None
            current = self.db.budget or QueryBudget()
            self.db.budget = replace(current, timeout_seconds=timeout)
            if self.db.budget.unlimited:
                self.db.budget = None
                return "query timeout disabled"
            return f"budget now: {self.db.budget.describe()}"
        if command == "columnar":
            word = argument.strip().lower()
            if word == "on":
                self.db.columnar_mode = True
                self.db.params = self.db.params.with_overrides(
                    columnar_execution=True
                )
            elif word == "off":
                self.db.columnar_mode = False
                self.db.params = self.db.params.with_overrides(
                    columnar_execution=False
                )
            elif word:
                return "usage: \\columnar [on|off]"
            if self.db.columnar_mode:
                return (
                    "execution engine: columnar numpy vector kernels "
                    f"(batch_size={self.db.params.batch_size}); the cost "
                    "model discounts vectorizable CPU terms"
                )
            return "columnar execution off (row batches)"
        if command == "budget":
            budget = self.db.budget
            return budget.describe() if budget is not None else "unlimited"
        if command == "reopt":
            return self._reopt(argument)
        if command == "admission":
            return self._admission(argument)
        return f"unknown command \\{command} (try \\help)"

    def _admission(self, argument: str) -> str:
        """The ``\\admission`` meta-command: server-wide admission control."""
        from dataclasses import replace as dc_replace

        from repro.engine.admission import (
            PRIORITY_RANKS,
            AdmissionConfig,
            AdmissionController,
        )

        words = argument.split()
        if not words:
            controller = self.db.admission
            if controller is None:
                return (
                    "admission control: off "
                    "(\\admission on [slots] to enable)"
                )
            return (
                "admission control: on\n"
                f"session tenant/priority: {self.db.session_tenant}/"
                f"{self.db.session_priority}\n" + controller.describe()
            )
        knob = words[0].lower()
        if knob == "on":
            slots = None
            if len(words) == 2:
                try:
                    slots = int(words[1])
                except ValueError:
                    return f"not a number: {words[1]!r}"
                if slots < 1:
                    return "slot count must be >= 1"
            config = AdmissionConfig()
            if slots is not None:
                config = dc_replace(config, max_concurrency=slots)
            self.db.admission = AdmissionController(config)
            return (
                f"admission control enabled "
                f"({config.max_concurrency} slots, queue depth "
                f"{config.queue_depth}, "
                f"{config.queue_timeout_seconds * 1000.0:.0f}ms queue "
                "deadline)"
            )
        if knob == "off":
            self.db.admission = None
            return "admission control disabled"
        if knob == "tenant" and len(words) == 2:
            self.db.session_tenant = words[1]
            return f"session tenant: {words[1]}"
        if knob == "priority" and len(words) == 2:
            priority = words[1].lower()
            if priority not in PRIORITY_RANKS:
                choices = "|".join(PRIORITY_RANKS)
                return f"unknown priority {words[1]!r} (use {choices})"
            self.db.session_priority = priority
            return f"session priority: {priority}"
        return (
            "usage: \\admission [on [slots]|off|tenant <name>|"
            "priority <high|normal|low>]"
        )

    def _reopt(self, argument: str) -> str:
        """The ``\\reopt`` meta-command: adaptive-execution knobs.

        Toggling or re-tuning clears the plan cache -- cached plans were
        physicalized with the previous CHECK-insertion settings.
        """
        words = argument.split()
        current = self.db.adaptive or AdaptiveConfig(enabled=False)
        if not words:
            metrics = self.db.metrics
            status = (
                "on" if self.db.adaptive is not None and current.enabled
                else "off"
            )
            return (
                f"adaptive re-optimization: {status}\n"
                f"  max re-opts per query: {current.max_reopts}\n"
                f"  validity factor: {current.validity_factor:g}\n"
                f"  checks fired: {metrics.adaptive_checks_fired}\n"
                f"  re-optimizations: {metrics.adaptive_reoptimizations}\n"
                f"  checkpoints reused: {metrics.adaptive_checkpoints_reused}"
            )
        knob = words[0].lower()
        if knob == "on":
            self.db.adaptive = replace(current, enabled=True)
            self.db.plan_cache.clear()
            return "adaptive re-optimization enabled"
        if knob == "off":
            self.db.adaptive = replace(current, enabled=False)
            self.db.plan_cache.clear()
            return "adaptive re-optimization disabled"
        if knob == "max" and len(words) == 2:
            try:
                count = int(words[1])
            except ValueError:
                return f"not a number: {words[1]!r}"
            if count < 0:
                return "max re-opts must be >= 0"
            self.db.adaptive = replace(current, max_reopts=count)
            self.db.plan_cache.clear()
            return f"max re-opts per query: {count}"
        if knob == "factor" and len(words) == 2:
            try:
                factor = float(words[1])
            except ValueError:
                return f"not a number: {words[1]!r}"
            if factor <= 1.0:
                return "validity factor must be > 1"
            self.db.adaptive = replace(current, validity_factor=factor)
            self.db.plan_cache.clear()
            return f"validity factor: {factor:g}"
        return "usage: \\reopt [on|off|max <n>|factor <x>]"

    def _query(self, sql: str) -> str:
        # Route Ctrl-C to the engine's cancellation token for the duration
        # of the query: the governor raises QueryCancelled at the next
        # check, the error prints, and the session survives.
        self.db.cancel_token.reset()
        installed = False
        previous = None
        try:
            previous = signal.signal(
                signal.SIGINT, lambda *_args: self.db.cancel_token.cancel()
            )
            installed = True
        except ValueError:
            pass  # not on the main thread; leave delivery untouched
        try:
            result = self.db.sql(sql)
        finally:
            if installed:
                signal.signal(
                    signal.SIGINT,
                    previous if previous is not None else signal.SIG_DFL,
                )
        if result.kind == "dml":
            affected = result.rows[0][0] if result.rows else 0
            plural = "" if affected == 1 else "s"
            return f"({affected} row{plural} affected)"
        if result.kind != "select":
            # EXPLAIN / PREPARE / DEALLOCATE / BEGIN / COMMIT / ROLLBACK
            # results are rendered text; print the body without the
            # tabular row/page footer.
            return "\n".join(str(row[0]) for row in result.rows)
        body = self._format_rows(result.column_names, result.rows)
        counters = result.context.counters
        footer = (
            f"({len(result.rows)} rows; {counters.total_page_reads} page "
            f"reads, {result.context.buffer_pool.hit_ratio:.0%} buffer hits)"
        )
        return f"{body}\n{footer}"

    @staticmethod
    def _format_rows(names: List[str], rows, limit: int = 25) -> str:
        header = " | ".join(names)
        lines = [header, "-" * len(header)]
        for row in rows[:limit]:
            lines.append(
                " | ".join("NULL" if v is None else str(v) for v in row)
            )
        if len(rows) > limit:
            lines.append(f"... ({len(rows) - limit} more rows)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def repl(self) -> None:
        """Read-eval-print until EOF."""
        print("repro SQL shell -- \\help for commands, \\quit to exit")
        buffer: List[str] = []
        while True:
            prompt = "repro> " if not buffer else "  ...> "
            try:
                line = input(prompt)
            except EOFError:
                print()
                return
            if line.strip().startswith("\\"):
                buffer = []
                try:
                    print(self.run_command(line))
                except EOFError:
                    return
                except ReproError as error:
                    print(f"error: {error}")
                continue
            buffer.append(line)
            if line.rstrip().endswith(";"):
                statement = "\n".join(buffer)
                buffer = []
                try:
                    print(self.run_command(statement))
                except ReproError as error:
                    print(f"error: {error}")
                except Exception as error:  # stay alive on bugs
                    print(f"internal error: {error!r}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    db = Database()
    if "--demo" in argv:
        from repro.datagen import build_emp_dept

        build_emp_dept(db.catalog, emp_rows=2_000, dept_rows=100)
        db.analyze()
        print("demo data loaded: Emp (2000 rows), Dept (100 rows)")
    Shell(db).repl()
    return 0
