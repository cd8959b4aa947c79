package perfbench

import repro.core.{Practical, ReqSketch, ReqSpark}
import repro.exp.Workloads

/** Loops shared by the workloads. Each is a closed loop with one caller
  * thread: the next call starts when the previous one returns.
  */
object Loops {
  /** Passes a timed loop makes even when they take longer than `--seconds`. */
  val MinPasses = 3

  /** The φ values of every quantile loop. */
  val Phis: Array[Double] = Array(0.001, 0.01, 0.5, 0.99)

  def newSketch(seed: Long): ReqSketch = ReqSketch(0.01, 0.05, Practical, seed)

  def feed(t: Target, data: Array[Double], from: Int, until: Int): Unit = {
    var i = from
    while (i < until) { t.update(data(i)); i += 1 }
  }

  /** Wall seconds of `f`. */
  def time(f: => Unit): Double = { val t0 = System.nanoTime(); f; (System.nanoTime() - t0) / 1e9 }

  /** `count` query points drawn from `data`. */
  def drawQueries(data: Array[Double], count: Int, seed: Long): Array[Double] = {
    val rng = new java.util.Random(seed)
    Array.fill(count)(data(rng.nextInt(data.length)))
  }

  /** A read-only query loop on a finished sketch: `rankRounds` passes of
    * rank calls over the query points, then `quantileCalls` quantile calls
    * cycling through `Phis`.
    */
  final class Probe(t: Target, val ys: Array[Double], rankRounds: Int, quantileCalls: Int) {
    def this(t: Target, ys: Array[Double]) = this(t, ys, 8, ys.length)
    val rankUs = new Samples
    val quantileUs = new Samples
    val ranks = new Array[Double](ys.length)
    val quantiles = new Array[Double](quantileCalls)
    for (_ <- 0 until rankRounds; i <- ys.indices) {
      val t0 = System.nanoTime()
      ranks(i) = t.rank(ys(i))
      rankUs.add((System.nanoTime() - t0) / 1e3)
    }
    for (i <- quantiles.indices) {
      val t0 = System.nanoTime()
      quantiles(i) = t.quantile(Phis(i % Phis.length))
      quantileUs.add((System.nanoTime() - t0) / 1e3)
    }
  }

  /** The `serve` loop: rounds of 256 updates, 16 ranks of items already
    * streamed, and one quantile per φ in `Phis`, until `deadlineNs` or
    * `maxRounds`. Every answer is logged with the stream prefix it saw, so
    * it can be checked after the timed part.
    */
  final class Serve(t: Target, stream: Array[Double], start: Int, seed: Long,
                    deadlineNs: Long, maxRounds: Int) {
    val rankUs = new Samples
    val quantileUs = new Samples
    val roundS = new Samples
    var updateNs = 0L
    var pos: Int = start
    private val cap = math.min(maxRounds, (stream.length - start) / 256)
    val rankPrefix = new Array[Int](16 * cap)
    val rankY = new Array[Double](16 * cap)
    val rankEst = new Array[Double](16 * cap)
    val quantPrefix = new Array[Int](Phis.length * cap)
    val quantAns = new Array[Double](Phis.length * cap)
    var rounds = 0
    val wallS: Double = {
      val rng = new java.util.Random(seed)
      val t0 = System.nanoTime()
      while (rounds < cap && System.nanoTime() < deadlineNs) {
        val u0 = System.nanoTime()
        feed(t, stream, pos, pos + 256)
        updateNs += System.nanoTime() - u0
        pos += 256
        for (j <- 0 until 16) {
          val i = 16 * rounds + j
          val y = stream(rng.nextInt(pos))
          val q0 = System.nanoTime()
          rankEst(i) = t.rank(y)
          rankUs.add((System.nanoTime() - q0) / 1e3)
          rankPrefix(i) = pos; rankY(i) = y
        }
        for (j <- Phis.indices) {
          val i = Phis.length * rounds + j
          val q0 = System.nanoTime()
          quantAns(i) = t.quantile(Phis(j))
          quantileUs.add((System.nanoTime() - q0) / 1e3)
          quantPrefix(i) = pos
        }
        roundS.add((System.nanoTime() - u0) / 1e9)
        rounds += 1
      }
      (System.nanoTime() - t0) / 1e9
    }
    def updates: Int = pos - start
  }
}

/** The single-threaded workloads: `ingest`, `serve` and `rollup`. */
final class Local(ctx: Ctx) {
  import Loops._
  import ctx.{checks, seed, sizes}

  /** Compiles the query path before it is timed. */
  def warmQueries(s: ReqSketch, data: Array[Double]): Unit =
    new Probe(new ReqTarget(s), drawQueries(data, 512, seed + 5), 1, 32)

  private def deadline: Long = System.nanoTime() + (ctx.seconds * 1e9).toLong

  /** Measures and checks the finished sketch `s` (reached through `t`):
    * query latencies, size, accuracy over the rank grid, and the
    * `toBytes`/`fromBytes` round trip.
    */
  def finish(label: String, t: Target, s: ReqSketch, exact: Exact, data: Array[Double]): Unit = {
    // Latencies are per-layer metrics, so the untraced run only checks a few answers.
    val p = if (ctx.trace.isDefined) new Probe(t, drawQueries(data, sizes.queries, seed + 7))
            else new Probe(t, drawQueries(data, 64, seed + 7), 1, 64)
    for (i <- p.ys.indices)
      checks.rank(p.ranks(i).toLong, exact.rank(p.ys(i)), s"$label rank(${p.ys(i)})")
    for (i <- p.quantiles.indices) {
      val phi = Phis(i % Phis.length)
      checks.quantile(exact.rank(p.quantiles(i)), math.ceil(phi * exact.n).toLong, s.height,
        s"$label quantile($phi)")
    }
    ctx.latencies(p.rankUs, p.quantileUs)
    sketchState(label, s, exact, data)
  }

  private def size(s: ReqSketch, bytes: Int): Unit = {
    ctx.metric("items_stored", s.itemsStored)
    ctx.metric("bytes_per_item", bytes.toDouble / s.itemsStored)
  }

  private def sketchState(label: String, s: ReqSketch, exact: Exact, data: Array[Double],
                          reportSize: Boolean = true): Unit = {
    ctx.metric("max_rel_err", exact.gridError(s, checks, s"$label grid"))
    val bytes = Serde.toBytes(s, ctx.trace)
    if (reportSize) size(s, bytes.length)
    val back = Serde.fromBytes(bytes, ctx.trace)
    for (y <- exact.gridQueries)
      checks.check(back.rank(y) == s.rank(y), s"$label: fromBytes(toBytes(s)).rank($y) differs")
    ctx.metric("serve.upper_tail_rel_err", exact.upperTailError(s))
    ctx.trace.foreach { tr =>
      ctx.stateMetrics(s)
      // As many `coreset` calls as there were `quantile` calls, so that the
      // two busy times compare directly.
      for (_ <- 0 until tr.sum("ReqSketch.quantile.calls").toInt)
        tr.add("ReqSketch.coreset.busy_s", time(s.coreset))
      val batch = drawQueries(data, 1024, seed + 11)
      val perQuery = new Samples
      for (_ <- 0 until 5) perQuery.add(time(s.ranks(batch)) * 1e9 / batch.length)
      ctx.metric("ReqSketch.ranks.ns_per_query", perQuery.median)
    }
  }

  // ------------------------------------------------------------------ ingest

  def ingest(): Unit = {
    val n = sizes.ingestN
    val data = ctx.setup {
      val d = Workloads.uniform(n, seed)
      val warm = newSketch(ReqSpark.mixSeed(seed, -1))
      feed(new ReqTarget(warm), d, 0, sizes.warmupN)
      warmQueries(warm, d)
      d
    }
    val sketchSeed = ReqSpark.mixSeed(seed, 0)
    def pass(t: Target, s: ReqSketch): Double = {
      val dt = time(feed(t, data, 0, n))
      checks.check(s.n == n, s"ingest: n = ${s.n}, expected $n")
      dt
    }
    val exact = new Exact(data)
    ctx.trace match {
      case None =>
        // A pass is timed in slices; its robust time is the sum over slices
        // of each slice's median across passes, so a stall of the machine
        // during part of one pass does not move the result.
        val slices = 16
        val bounds = Array.tabulate(slices + 1)(j => (n.toLong * j / slices).toInt)
        val sliceS = Array.fill(slices)(new Samples)
        val rates = new Samples
        var s: ReqSketch = null
        ctx.timed {
          val end = deadline
          do {
            s = newSketch(sketchSeed)
            val t = new ReqTarget(s)
            val dts = Array.tabulate(slices)(j => time(feed(t, data, bounds(j), bounds(j + 1))))
            checks.check(s.n == n, s"ingest: n = ${s.n}, expected $n")
            for (j <- 0 until slices) sliceS(j).add(dts(j))
            rates.add(n / dts.sum)
          } while (System.nanoTime() < end || rates.size < MinPasses)
        }
        ctx.metric("items_per_s", n / sliceS.map(_.median).sum)
        ctx.detail("pass_items_per_s", rates.values)
        finish("ingest", new ReqTarget(s), s, exact, data)
      case Some(tr) =>
        val plain = newSketch(sketchSeed)
        val untraced = pass(new ReqTarget(plain), plain)
        val s = newSketch(sketchSeed)
        val stats = new UpdateStats
        val traced = new TracedReq(s, tr, stats)
        val tracedS = tr.span("ingest.pass")(pass(traced, s))
        ctx.metric("trace.overhead_ratio", tracedS / untraced)
        ctx.metrics(stats.metrics)
        finish("ingest", traced, s, exact, data)
        Refs.ingest(ctx, data)
    }
  }

  // ------------------------------------------------------------------- serve

  def serve(): Unit = {
    val base = sizes.serveBase
    def build(stream: Array[Double]): ReqSketch = {
      val s = newSketch(ReqSpark.mixSeed(seed, 0))
      feed(new ReqTarget(s), stream, 0, base)
      s
    }
    val (stream, first) = ctx.setup {
      val st = Workloads.uniform(base + sizes.servePool, seed)
      (st, build(st))
    }
    // Size is that of the set-up sketch: how far the timed loop gets depends
    // on the speed of the machine.
    size(first, ReqSketch.toBytes(first).length)
    ctx.trace match {
      case None =>
        val log = ctx.timed(new Serve(new ReqTarget(first), stream, base, seed, deadline, Int.MaxValue))
        // Rounds are timed in blocks of 32; the rate is that of the median
        // block, so a stall of the machine during a few blocks does not move it.
        val blocks = new Samples
        val r = log.roundS.values
        val block = math.max(1, math.min(32, r.length))
        for (b <- 0 until r.length / block) blocks.add(r.slice(block * b, block * b + block).sum)
        ctx.metric("items_per_s", block * 256 / blocks.median)
        ctx.detail("loop_items_per_s", log.updates / log.wallS)
        ctx.detail("rounds", log.rounds)
        ctx.latencies(log.rankUs, log.quantileUs)
        verifyServe(log, first, stream)
      case Some(tr) =>
        val untraced = new Serve(new ReqTarget(first), stream, base, seed, Long.MaxValue, sizes.tracedRounds)
        val s = build(stream)
        val stats = new UpdateStats
        val log = tr.span("serve.rounds")(
          new Serve(new TracedReq(s, tr, stats), stream, base, seed, Long.MaxValue, sizes.tracedRounds))
        ctx.metric("trace.overhead_ratio", log.wallS / untraced.wallS)
        ctx.metrics(stats.metrics)
        ctx.latencies(log.rankUs, log.quantileUs)
        verifyServe(log, s, stream)
        Refs.serve(ctx, stream, base)
    }
  }

  /** Checks every answer of the serve loop against the exact rank within
    * the stream prefix it saw, then the final state.
    */
  private def verifyServe(log: Serve, s: ReqSketch, stream: Array[Double]): Unit = {
    val nr = 16 * log.rounds
    val exactRanks = Exact.prefixRanks(stream, log.rankPrefix, log.rankY, nr)
    for (i <- 0 until nr)
      checks.rank(log.rankEst(i).toLong, exactRanks(i), s"serve rank(${log.rankY(i)}) at n=${log.rankPrefix(i)}")
    val nq = Phis.length * log.rounds
    val exactQ = Exact.prefixRanks(stream, log.quantPrefix, log.quantAns, nq)
    for (i <- 0 until nq) {
      val phi = Phis(i % Phis.length)
      checks.quantile(exactQ(i), math.ceil(phi * log.quantPrefix(i)).toLong, s.height,
        s"serve quantile($phi) at n=${log.quantPrefix(i)}")
    }
    val prefix = java.util.Arrays.copyOf(stream, log.pos)
    checks.check(s.n == log.pos, s"serve: n = ${s.n}, expected ${log.pos}")
    sketchState("serve", s, new Exact(prefix), prefix, reportSize = false)
  }

  // ------------------------------------------------------------------ rollup

  def rollup(): Unit = {
    val (chunks, c) = (sizes.rollupChunks, sizes.chunkN)
    val stats = new UpdateStats
    val (data, bytes) = ctx.setup {
      val d = Workloads.uniform(chunks * c, seed)
      val b = Array.tabulate(chunks) { i =>
        val s = newSketch(ReqSpark.mixSeed(seed, i))
        val t = ctx.trace.fold[Target](new ReqTarget(s))(tr => new TracedReq(s, tr, stats))
        feed(t, d, i * c, (i + 1) * c)
        ReqSketch.toBytes(s)
      }
      (d, b)
    }
    def pass(tr: Option[Trace]): (ReqSketch, Double) = {
      var acc: ReqSketch = null
      val dt = time {
        acc = Serde.fromBytes(bytes(0), tr)
        for (i <- 1 until chunks) acc = merge(acc, Serde.fromBytes(bytes(i), tr), tr)
        Serde.toBytes(acc, tr)
      }
      checks.check(acc.n == data.length, s"rollup: n = ${acc.n}, expected ${data.length}")
      (acc, dt)
    }
    warmQueries(pass(None)._1, data)
    val exact = new Exact(data)
    ctx.trace match {
      case None =>
        val rates = new Samples
        var s: ReqSketch = null
        ctx.timed {
          val end = deadline
          do {
            val (acc, dt) = pass(None)
            s = acc
            rates.add(data.length / dt)
          } while (System.nanoTime() < end || rates.size < MinPasses)
        }
        ctx.metric("items_per_s", rates.median)
        ctx.detail("pass_items_per_s", rates.values)
        finish("rollup", new ReqTarget(s), s, exact, data)
      case Some(tr) =>
        ctx.metrics(stats.metrics)
        val untraced = pass(None)._2
        val (s, tracedS) = tr.span("rollup.pass")(pass(Some(tr)))
        ctx.metric("trace.overhead_ratio", tracedS / untraced)
        finish("rollup", new TracedReq(s, tr, new UpdateStats), s, exact, data)
    }
  }

  private def merge(a: ReqSketch, b: ReqSketch, tr: Option[Trace]): ReqSketch = tr match {
    case None => a.merge(b)
    case Some(t) =>
      t.add("ReqSketch.merge.items_in", a.itemsStored + b.itemsStored)
      val m = t.span("ReqSketch.merge")(a.merge(b))
      t.add("ReqSketch.merge.items_out", m.itemsStored)
      m
  }
}
