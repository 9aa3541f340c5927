"""Tiny rule-trace accumulator threaded through the decision layers.

Every operation that picks between derivation routes can note which
rule it applied; the CLI surfaces the collected entries so numeric
answers are auditable.
"""

from __future__ import annotations


class Trace:
    def __init__(self):
        self.entries: list[str] = []

    def add(self, rule: str):
        if not self.entries or self.entries[-1] != rule:
            self.entries.append(rule)

    @staticmethod
    def note(trace: "Trace | None", rule: str):
        if trace is not None:
            trace.add(rule)

    @staticmethod
    def replay(trace: "Trace | None", rules):
        if trace is not None:
            for rule in rules:
                trace.add(rule)
