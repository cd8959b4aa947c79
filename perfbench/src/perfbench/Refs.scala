package perfbench

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{count, expr, lit}

/** Reference rows (`ref.*`, traced run only, never gated), run on the same
  * inputs as the sketch under test.
  */
object Refs {
  import Loops._

  private def targets: Seq[(String, () => Target)] = Seq(
    "ds_req_lra" -> (() => new DsReqTarget(hra = false)),
    "ds_req_hra" -> (() => new DsReqTarget(hra = true)),
    "ds_kll" -> (() => new KllTarget))

  private def sizeMetric(ctx: Ctx, name: String, t: Target): Unit =
    ctx.metric(s"ref.$name.bytes_per_item", t.serializedBytes.toDouble / t.retained)

  /** The `ingest` stream into each reference, then the same query probe. */
  def ingest(ctx: Ctx, data: Array[Double]): Unit =
    for ((name, make) <- targets) {
      feed(make(), data, 0, ctx.sizes.warmupN)
      val t = make()
      ctx.metric(s"ref.$name.update_ns", time(feed(t, data, 0, data.length)) * 1e9 / data.length)
      val p = new Probe(t, drawQueries(data, ctx.sizes.queries, ctx.seed + 7))
      ctx.metric(s"ref.$name.rank_us", p.rankUs.median)
      ctx.metric(s"ref.$name.quantile_us", p.quantileUs.median)
      sizeMetric(ctx, name, t)
    }

  /** The `serve` rounds on each reference, from the same base stream. */
  def serve(ctx: Ctx, stream: Array[Double], base: Int): Unit =
    for ((name, make) <- targets) {
      val t = make()
      feed(t, stream, 0, base)
      val log = new Serve(t, stream, base, ctx.seed, Long.MaxValue, ctx.sizes.tracedRounds)
      ctx.metric(s"ref.$name.update_ns", log.updateNs.toDouble / log.updates)
      ctx.metric(s"ref.$name.rank_us", log.rankUs.median)
      ctx.metric(s"ref.$name.quantile_us", log.quantileUs.median)
      sizeMetric(ctx, name, t)
    }

  /** Spark's built-in aggregates over the same cached frame and grouping:
    * median of three runs after one warm-up run.
    */
  def spark(ctx: Ctx, df: DataFrame): Unit = {
    val aggs: Seq[(String, Column)] = Seq(
      "count_s" -> count(lit(1)),
      "kll_sketch_agg_s" -> expr("kll_sketch_agg_double(v)"),
      "percentile_approx_s" -> expr("percentile_approx(v, 0.99, 10000)"))
    for ((name, agg) <- aggs) {
      val times = new Samples
      for (i <- 0 until 4) {
        val dt = time(df.groupBy("k").agg(agg).collect())
        if (i > 0) times.add(dt)
      }
      ctx.metric(s"ref.spark.$name", times.median)
    }
  }
}
