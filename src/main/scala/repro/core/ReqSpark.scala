package repro.core

import org.apache.spark.sql.{DataFrame, Encoder, Encoders, SparkSession}
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions.{col, udaf, udf}

/** Spark integration for the REQ sketch.
  *
  * The paper's headline systems claim is full mergeability: "summarizing
  * each piece separately and then merging the results" preserves the
  * accuracy/space guarantees. This module makes that executable on Spark in
  * the two idiomatic ways:
  *
  *  1. [[ReqSketchAggregator]] — a typed `Aggregator` usable as a UDAF in
  *     DataFrame/SQL `GROUP BY` queries (Catalyst drives partial aggregation,
  *     so `merge` runs across partitions exactly as Algorithm 4 intends);
  *  2. [[ReqSpark.sketchColumn]] — explicit per-partition sketches combined
  *     with a depth-d `treeReduce`, which realizes an *arbitrary merge tree*
  *     (the Appendix C setting) and gives each partition an independent RNG
  *     seed.
  *
  * The UDAF's output is the sketch in its versioned binary wire format
  * ([[ReqSketch.toBytes]]: a header, then each level as one sorted run of
  * big-endian doubles, about 8 bytes per stored item); use
  * [[ReqSpark.quantileUdf]] / [[ReqSketch.fromBytes]] to query it. The
  * aggregation buffers and `treeReduce` task results are Java-serialized,
  * which for a sketch writes those same bytes.
  */
final class ReqSketchAggregator(
    eps: Double,
    delta: Double,
    profile: ParamProfile,
    seed: Long
) extends Aggregator[Double, ReqSketch, Array[Byte]] {

  override def zero: ReqSketch = ReqSketch(eps, delta, profile, seed)

  override def reduce(b: ReqSketch, x: Double): ReqSketch = { b.update(x); b }

  override def merge(a: ReqSketch, b: ReqSketch): ReqSketch = a.merge(b)

  override def finish(r: ReqSketch): Array[Byte] = ReqSketch.toBytes(r)

  override def bufferEncoder: Encoder[ReqSketch] =
    Encoders.javaSerialization(classOf[ReqSketch])

  override def outputEncoder: Encoder[Array[Byte]] = Encoders.BINARY
}

object ReqSpark {

  /** Mix a base seed with a partition id into a well-spread per-partition
    * seed (the SplitMix64 output for `seed` after `pid + 1` steps), keeping
    * partition sketches independent yet reproducible.
    */
  def mixSeed(seed: Long, pid: Int): Long = {
    val m = ReqSketch.scramble(seed + ReqSketch.Gamma * pid)
    if (m == 0) 1 else m // 0 means "entropy" to ReqSketch; keep determinism
  }

  /** Build one REQ sketch for a numeric column: one sketch per partition
    * (seeded independently), combined via a depth-`depth` tree of Algorithm-4
    * merges. Nulls/NaNs are dropped. The column is read as Catalyst rows
    * (`queryExecution.toRdd`), with no conversion to `Row`.
    */
  def sketchColumn(df: DataFrame,
                   column: String,
                   eps: Double = 0.01,
                   delta: Double = 0.05,
                   profile: ParamProfile = Practical,
                   seed: Long = 0L,
                   depth: Int = 2): ReqSketch = {
    val rows = df.select(col(column).cast("double")).queryExecution.toRdd
    val sketches = rows.mapPartitionsWithIndex { (pid, it) =>
      val s = ReqSketch(eps, delta, profile,
        if (seed == 0) 0L else mixSeed(seed, pid))
      it.foreach(row => if (!row.isNullAt(0)) s.update(row.getDouble(0))) // update skips NaN
      Iterator.single(s)
    }
    // Every partition emits exactly one sketch, so this needs no Spark job.
    if (sketches.getNumPartitions == 0) ReqSketch(eps, delta, profile, seed)
    else sketches.treeReduce((a, b) => a.merge(b), math.max(1, depth))
  }

  /** UDAF over a double column returning the serialized sketch. Register
    * with `spark.udf.register(name, reqUdaf(...))` for SQL use.
    */
  def reqUdaf(eps: Double = 0.01,
              delta: Double = 0.05,
              profile: ParamProfile = Practical,
              seed: Long = 0L): org.apache.spark.sql.expressions.UserDefinedFunction =
    udaf(new ReqSketchAggregator(eps, delta, profile, seed), Encoders.scalaDouble)

  /** UDF extracting a φ-quantile from a serialized sketch column. */
  def quantileUdf(phi: Double): org.apache.spark.sql.expressions.UserDefinedFunction =
    udf((bytes: Array[Byte]) => ReqSketch.fromBytes(bytes).quantile(phi))

  /** UDF extracting the estimated rank of `y` from a serialized sketch. */
  def rankUdf(y: Double): org.apache.spark.sql.expressions.UserDefinedFunction =
    udf((bytes: Array[Byte]) => ReqSketch.fromBytes(bytes).rank(y))

  /** Convenience: register the sketch UDAF plus rank/quantile helpers. */
  def register(spark: SparkSession,
               name: String = "req_sketch",
               eps: Double = 0.01,
               delta: Double = 0.05,
               profile: ParamProfile = Practical,
               seed: Long = 0L): Unit =
    spark.udf.register(name, reqUdaf(eps, delta, profile, seed))
}
