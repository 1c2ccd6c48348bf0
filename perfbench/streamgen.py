"""Seeded update-stream generator whose batches are valid by construction.

Reads a graph TSV (``N <id> <label> [k=v ...]`` / ``E <src> <dst>
<label>``) and produces delta batches in the TSV delta format
(``E+``/``E-``/``A`` records). The op mix follows bench_incremental's
``RandomDelta``: 40% edge inserts (source of one random edge, target of
another, label of the first), 30% edge deletes, 30% attribute sets, a
quarter of them to a new ``patched_<k>`` value.

Validity: every producer tracks the edge copies it may delete -- the
base edges assigned to it (edge index modulo the producer count) plus
its own inserts. A delete removes one copy from that pool, so no ``E-``
ever targets a missing edge, and since the pools of different producers
are disjoint, every interleaving of their streams is valid too. The same
(seed, producer) gives a byte-identical stream.
"""

import random


class Graph:
    """The parts of a graph TSV the generator needs, in file order."""

    def __init__(self, path):
        self.nodes = []  # (name, [attr keys])
        self.edges = []  # (src, dst, label)
        self.values = []  # distinct attribute values, first-seen order
        seen_values = set()
        with open(path, encoding="utf-8") as f:
            for line in f:
                fields = line.rstrip("\n").split("\t")
                if fields[0] == "N":
                    keys = []
                    for kv in fields[3:]:
                        key, _, value = kv.partition("=")
                        keys.append(key)
                        if value not in seen_values:
                            seen_values.add(value)
                            self.values.append(value)
                    self.nodes.append((fields[1], keys))
                elif fields[0] == "E":
                    self.edges.append((fields[1], fields[2], fields[3]))
        self.attributed = [n for n in self.nodes if n[1]]


class Producer:
    """One producer's stream: ``next_batch()`` yields the next batch."""

    def __init__(self, graph, seed, index, producers, batch_ops):
        self.graph = graph
        self.rng = random.Random(seed * 1009 + index)
        self.batch_ops = batch_ops
        self.pool = [e for i, e in enumerate(graph.edges)
                     if i % producers == index]

    def _delete(self):
        i = self.rng.randrange(len(self.pool))
        self.pool[i], self.pool[-1] = self.pool[-1], self.pool[i]
        return "E-\t%s\t%s\t%s" % self.pool.pop()

    def _insert(self):
        edges = self.graph.edges
        src, _, label = edges[self.rng.randrange(len(edges))]
        _, dst, _ = edges[self.rng.randrange(len(edges))]
        self.pool.append((src, dst, label))
        return "E+\t%s\t%s\t%s" % (src, dst, label)

    def _set_attr(self):
        name, keys = self.graph.attributed[
            self.rng.randrange(len(self.graph.attributed))]
        key = keys[self.rng.randrange(len(keys))]
        if self.rng.random() < 0.25:
            value = "patched_%d" % self.rng.randrange(8)
        else:
            value = self.graph.values[
                self.rng.randrange(len(self.graph.values))]
        return "A\t%s\t%s=%s" % (name, key, value)

    def next_batch(self):
        ops = []
        for _ in range(self.batch_ops):
            roll = self.rng.random()
            if roll < 0.4:
                ops.append(self._insert())
            elif roll < 0.7 and self.pool:
                ops.append(self._delete())
            else:
                ops.append(self._set_attr())
        return ("\n".join(ops) + "\n").encode()


def make_streams(graph, seed, producers, batch_ops, batches):
    """``producers`` lists of ``batches`` encoded batches each."""
    out = []
    for p in range(producers):
        gen = Producer(graph, seed, p, producers, batch_ops)
        out.append([gen.next_batch() for _ in range(batches)])
    return out
