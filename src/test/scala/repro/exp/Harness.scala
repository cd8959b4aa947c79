package repro.exp

import org.apache.datasketches.kll.KllDoublesSketch
import org.apache.datasketches.quantilescommon.QuantileSearchCriteria.INCLUSIVE
import org.apache.spark.sql.SparkSession
import repro.baselines.ProtectedHalfSketch
import repro.core._

/** Experiment harness: one function per table of EXPERIMENTS.md (T1–T6).
  *
  * Each function returns typed rows; `render` turns them into the
  * markdown-ish table that the `bench/` suites print. The bench suites also
  * assert the paper-predicted *shape* (who wins, growth exponents, guarantee
  * thresholds).
  *
  * The additive-error baseline is DataSketches `KllDoublesSketch`
  * (Karnin–Lang–Liberty). It draws its compaction coins from a JVM-wide
  * `Random` and takes no seed: its item counts depend only on n and k, but
  * its errors vary from run to run.
  */
object Harness {

  // ----------------------------------------------------------------- common

  /** Error profile of a rank estimator against exact local ground truth:
    * queries are the data values at the `rankGrid` positions and the truth
    * is the exact rank of those values (robust to duplicate values).
    */
  final case class ErrProfile(maxRel: Double, p99Rel: Double, meanRel: Double,
                              perRank: Seq[(Long, Double)])

  def errProfile(rank: Double => Long, data: Array[Double]): ErrProfile =
    errProfile(rank, gridTruth(data))

  /** `errProfile` at grid queries and exact ranks already computed by
    * `gridTruth`: every permutation of the data has the same.
    */
  def errProfile(rank: Double => Long, truth: (Array[Double], Array[Long])): ErrProfile = {
    val (queries, truths) = truth
    val rels = queries.indices.map { i =>
      val t = truths(i)
      val est = rank(queries(i))
      (t, math.abs(est - t).toDouble / t)
    }
    val errs = rels.map(_._2).sorted
    ErrProfile(
      maxRel = errs.last,
      p99Rel = errs(math.min(errs.size - 1, math.ceil(0.99 * errs.size).toInt - 1)),
      meanRel = errs.sum / errs.size,
      perRank = rels
    )
  }

  /** The data values at the `rankGrid` positions of the sorted data, and
    * their exact ranks.
    */
  def gridTruth(data: Array[Double]): (Array[Double], Array[Long]) = {
    val sorted = data.clone()
    java.util.Arrays.sort(sorted)
    val queries = Workloads.rankGrid(sorted.length.toLong).map(r => sorted((r - 1).toInt))
    (queries, ExactRank.ranksLocal(sorted, queries))
  }

  /** The KLL k in [8, 65535] whose sketch of an n-item stream retains the
    * count nearest `targetItems`. KLL's retained count depends only on n and
    * k, so each candidate is fed n zeros. The count grows with k but not
    * monotonically (one step of k can lose hundreds of items), so a binary
    * search for the least k that reaches the target is followed by a scan of
    * the 32 k on either side of it.
    */
  def kllKForItems(targetItems: Int, n: Long): Int = {
    def kept(k: Int): Int = {
      val s = KllDoublesSketch.newHeapInstance(k)
      var i = 0L
      while (i < n) { s.update(0.0); i += 1 }
      s.getNumRetained
    }
    var lo = 8
    var hi = 65535
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (kept(mid) >= targetItems) hi = mid else lo = mid + 1
    }
    (math.max(8, lo - 32) to math.min(65535, lo + 32)).minBy(k => math.abs(kept(k) - targetItems))
  }

  /** Rank of `y` in items, from a KLL sketch's normalized inclusive rank. */
  def kllRank(s: KllDoublesSketch, y: Double): Long =
    math.round(s.getRank(y, INCLUSIVE) * s.getN)

  def render(title: String, header: Seq[String], rows: Seq[Seq[Any]]): String = {
    val body = rows.map(_.map {
      case d: Double => f"$d%.4f"
      case x         => x.toString
    })
    val all = header +: body
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (Seq(s"\n=== $title ===", fmt(header), sep) ++ body.map(fmt)).mkString("\n")
  }

  // --------------------------------------------------------------------- T1

  final case class T1Row(n: Long, reqItems: Int, reqPredicted: Double,
                         reqOverPred: Double, kllItems: Int, phItems: Int)

  /** T1 — space vs n at fixed ε: REQ should track C·ε⁻¹·log₂(εn)^1.5
    * (constant `reqOverPred` column), KLL stays ~flat (additive), the
    * protected-half baseline pays its ε⁻² sizing.
    */
  def t1SpaceVsN(ns: Seq[Long], eps: Double, delta: Double, seed: Long): Seq[T1Row] = {
    val shape = (n: Long) =>
      math.pow(math.max(2.0, math.log(eps * n) / math.log(2)), 1.5) / eps
    ns.map { n =>
      val data = Workloads.uniform(n.toInt, seed + n)
      val req = ReqSketch(eps, delta, Practical, seed = seed + 1)
      req.updateAll(data)
      val kll = KllDoublesSketch.newHeapInstance(math.max(8, (1 / eps).toInt))
      data.foreach(kll.update)
      val ph = ProtectedHalfSketch.forEps(eps, seed = seed + 3)
      ph.updateAll(data)
      val pred = shape(n)
      T1Row(n, req.itemsStored, pred, req.itemsStored / pred,
            kll.getNumRetained, ph.itemsStored)
    }
  }

  def renderT1(rows: Seq[T1Row], eps: Double): String =
    render(s"T1 space vs n (eps=$eps)",
      Seq("n", "REQ items", "pred eps^-1*log^1.5(eps n)", "REQ/pred", "KLL items", "ProtHalf items"),
      rows.map(r => Seq[Any](r.n, r.reqItems, r.reqPredicted, r.reqOverPred, r.kllItems, r.phItems)))

  // --------------------------------------------------------------------- T2

  final case class T2Row(rank: Long, reqRelErr: Double, kllRelErr: Double)
  final case class T2Result(rows: Seq[T2Row], reqItems: Int, kllItems: Int,
                            reqMaxRel: Double, kllMaxRelSmallRanks: Double)

  /** T2 — tail accuracy at (approximately) equal space: REQ keeps relative
    * error ≤ ε at every rank; KLL's additive guarantee translates to
    * unbounded relative error at small ranks.
    */
  def t2TailAccuracy(n: Int, eps: Double, delta: Double, seed: Long): T2Result = {
    val data = Workloads.uniform(n, seed)
    val req = ReqSketch(eps, delta, Practical, seed = seed + 1)
    req.updateAll(data)
    val kll = KllDoublesSketch.newHeapInstance(kllKForItems(req.itemsStored, n))
    data.foreach(kll.update)
    val reqP = errProfile(req.rank, data)
    val kllP = errProfile(kllRank(kll, _), data)
    val rows = reqP.perRank.zip(kllP.perRank).map { case ((r, e1), (_, e2)) =>
      T2Row(r, e1, e2)
    }
    val small = kllP.perRank.filter(_._1 <= n / 64).map(_._2)
    T2Result(rows, req.itemsStored, kll.getNumRetained, reqP.maxRel,
             if (small.isEmpty) 0.0 else small.max)
  }

  def renderT2(res: T2Result, n: Int, eps: Double): String =
    render(s"T2 tail accuracy (n=$n, eps=$eps, REQ items=${res.reqItems}, KLL items=${res.kllItems})",
      Seq("rank", "REQ rel.err", "KLL rel.err"),
      res.rows.map(r => Seq[Any](r.rank, r.reqRelErr, r.kllRelErr)))

  // --------------------------------------------------------------------- T3

  final case class T3Row(variant: String, maxRel: Double, p99Rel: Double,
                         items: Int, weightDrift: Double)

  /** T3 — mergeability: the same data summarized (a) by a single stream,
    * (b) by per-partition sketches merged up `ReqSpark.sketchColumn`'s
    * fixed-order tree at depths 2 and 4 (rows labelled "treeReduce", the
    * shape of that tree), and (c) by a random local pairwise merge tree,
    * must agree in accuracy and space ("as if the entire data set had been
    * processed as a single stream").
    */
  def t3Mergeability(spark: SparkSession, data: Array[Double], eps: Double,
                     delta: Double, seed: Long, chunks: Int = 64): Seq[T3Row] = {
    def row(name: String, s: ReqSketch): T3Row = {
      val p = errProfile(s.rank, data)
      T3Row(name, p.maxRel, p.p99Rel, s.itemsStored,
            math.abs(s.totalWeight - data.length).toDouble / data.length)
    }
    // (a) streaming
    val streaming = ReqSketch(eps, delta, Practical, seed = seed + 1)
    streaming.updateAll(data)
    // (b) sketchColumn's merge tree at two depths
    import spark.implicits._
    val df = spark.createDataset(data.toIndexedSeq).toDF("x").repartition(chunks)
    val tree2 = ReqSpark.sketchColumn(df, "x", eps, delta, Practical, seed = seed + 2, depth = 2)
    val tree4 = ReqSpark.sketchColumn(df, "x", eps, delta, Practical, seed = seed + 3, depth = 4)
    // (c) random pairwise merge order over local chunk sketches
    val rng = new java.util.Random(seed + 4)
    val chunkSize = math.max(1, data.length / chunks)
    val pool = data.grouped(chunkSize).zipWithIndex.map { case (chunk, i) =>
      val s = ReqSketch(eps, delta, Practical, seed = ReqSpark.mixSeed(seed + 5, i))
      s.updateAll(chunk)
      s
    }.toBuffer
    while (pool.size > 1) {
      val i = rng.nextInt(pool.size)
      val a = pool.remove(i)
      val j = rng.nextInt(pool.size)
      val b = pool.remove(j)
      pool += a.merge(b)
    }
    Seq(
      row("streaming", streaming),
      row("treeReduce d=2", tree2),
      row("treeReduce d=4", tree4),
      row(s"random pairwise ($chunks chunks)", pool.head),
    )
  }

  def renderT3(rows: Seq[T3Row], n: Int, eps: Double, what: String): String =
    render(s"T3 mergeability ($what, n=$n, eps=$eps)",
      Seq("variant", "max rel.err", "p99 rel.err", "items stored", "|weight-n|/n"),
      rows.map(r => Seq(r.variant, r.maxRel, r.p99Rel, r.items, r.weightDrift)))

  // --------------------------------------------------------------------- T4

  final case class T4Row(eps: Double, reqItems: Int, phItems: Int, spaceRatio: Double,
                         reqWorstOrderErr: Double, phWorstOrderErr: Double)

  /** T4 — ε sweep at fixed n: REQ space grows ≈ linearly in 1/ε while the
    * protected-half baseline (sized by its worst-case ε⁻² rule) grows
    * quadratically; both keep the error, but the space ratio diverges.
    * Errors are the worst over all arrival orders.
    */
  def t4EpsSweep(n: Int, epss: Seq[Double], delta: Double, seed: Long): Seq[T4Row] = {
    val base = Workloads.uniform(n, seed)
    val truth = gridTruth(base)
    epss.map { eps =>
      var reqItems = 0
      var phItems = 0
      var reqWorst = 0.0
      var phWorst = 0.0
      Workloads.orders.foreach { ord =>
        val data = Workloads.ordered(base, ord)
        val req = ReqSketch(eps, delta, Practical, seed = seed + 1)
        req.updateAll(data)
        val ph = ProtectedHalfSketch.forEps(eps, seed = seed + 2)
        ph.updateAll(data)
        reqItems = math.max(reqItems, req.itemsStored)
        phItems = math.max(phItems, ph.itemsStored)
        reqWorst = math.max(reqWorst, errProfile(req.rank, truth).maxRel)
        phWorst = math.max(phWorst, errProfile(ph.rank(_), truth).maxRel)
      }
      T4Row(eps, reqItems, phItems, phItems.toDouble / reqItems, reqWorst, phWorst)
    }
  }

  def renderT4(rows: Seq[T4Row], n: Int): String =
    render(s"T4 eps sweep (n=$n, worst over orders {${Workloads.orders.mkString(",")}})",
      Seq("eps", "REQ items", "ProtHalf items", "PH/REQ space", "REQ worst err", "PH worst err"),
      rows.map(r => Seq[Any](r.eps, r.reqItems, r.phItems, r.spaceRatio,
                             r.reqWorstOrderErr, r.phWorstOrderErr)))

  // --------------------------------------------------------------------- T5

  final case class T5Row(n: Long, eps: Double, nsPerUpdate: Double, items: Int, levels: Int)

  /** T5 — amortized update cost: ns/update should stay near-flat in n
    * (logarithmic in the buffer size), per Section 4's O(log B) claim.
    */
  def t5Throughput(ns: Seq[Long], epss: Seq[Double], delta: Double, seed: Long): Seq[T5Row] =
    for {
      eps <- epss
      n <- ns
    } yield {
      val data = Workloads.uniform(n.toInt, seed + n)
      // warm-up pass to JIT the hot loop, then timed pass on a fresh sketch
      val warm = ReqSketch(eps, delta, Practical, seed = seed)
      warm.updateAll(data)
      val s = ReqSketch(eps, delta, Practical, seed = seed + 1)
      val t0 = System.nanoTime()
      s.updateAll(data)
      val dt = System.nanoTime() - t0
      T5Row(n, eps, dt.toDouble / n, s.itemsStored, s.height + 1)
    }

  def renderT5(rows: Seq[T5Row]): String =
    render("T5 update cost",
      Seq("n", "eps", "ns/update", "items stored", "levels"),
      rows.map(r => Seq[Any](r.n, r.eps, r.nsPerUpdate, r.items, r.levels)))

  // --------------------------------------------------------------------- T6

  final case class T6Row(delta: Double, eps: Double, trials: Int,
                         worstQueryFailRate: Double, meanFailRate: Double)

  /** T6 — failure probability: over independent seeds, the per-query rate of
    * |Err(y)| ≥ ε·R(y) must stay below δ (Theorem 1).
    */
  def t6FailureProb(n: Int, eps: Double, deltas: Seq[Double], trials: Int,
                    seed: Long): Seq[T6Row] = {
    val data = Workloads.uniform(n, seed)
    val (queries, truths) = gridTruth(data)
    deltas.map { delta =>
      val failures = new Array[Int](queries.length)
      (1 to trials).foreach { t =>
        val s = ReqSketch(eps, delta, Practical, seed = ReqSpark.mixSeed(seed, t))
        s.updateAll(data)
        queries.indices.foreach { i =>
          if (math.abs(s.rank(queries(i)) - truths(i)) >= eps * truths(i) &&
              truths(i) > 0) failures(i) += 1
        }
      }
      val rates = failures.map(_.toDouble / trials)
      T6Row(delta, eps, trials, rates.max, rates.sum / rates.length)
    }
  }

  def renderT6(rows: Seq[T6Row], n: Int): String =
    render(s"T6 failure probability (n=$n)",
      Seq("delta", "eps", "trials", "worst per-query fail rate", "mean fail rate"),
      rows.map(r => Seq[Any](r.delta, r.eps, r.trials, r.worstQueryFailRate, r.meanFailRate)))
}
